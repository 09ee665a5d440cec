#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>

#include "eclipse/sim/simulator.hpp"

namespace eclipse::sim {

/// A waiter parked in a SimEvent or Semaphore queue.
///
/// The node is intrusive: it lives in the waiter itself — an awaiter in a
/// suspended coroutine frame, or a longer-lived owner such as a stream-cache
/// line — so parking a waiter allocates nothing. When woken, the node's
/// coroutine is resumed, or, when `handle` is null, `callback` is called
/// with the node, in both cases as a zero-delay event. The node must stay
/// alive and unmoved until then.
struct WaitNode {
  WaitNode* next = nullptr;
  std::coroutine_handle<> handle;
  void (*callback)(WaitNode&) = nullptr;
};

/// Intrusive FIFO of WaitNodes. Owns none of them: clear() only forgets
/// the nodes, so it is safe after the frames holding them were destroyed.
class WaitQueue {
 public:
  void push(WaitNode& n) {
    n.next = nullptr;
    if (tail_ != nullptr) {
      tail_->next = &n;
    } else {
      head_ = &n;
    }
    tail_ = &n;
    ++size_;
  }

  /// Removes and returns the oldest node, or null when empty.
  WaitNode* pop() {
    WaitNode* n = head_;
    if (n == nullptr) return nullptr;
    head_ = n->next;
    if (head_ == nullptr) tail_ = nullptr;
    --size_;
    return n;
  }

  [[nodiscard]] bool empty() const { return head_ == nullptr; }
  [[nodiscard]] std::size_t size() const { return size_; }

  void clear() {
    head_ = tail_ = nullptr;
    size_ = 0;
  }

  /// Schedules the wake-up of `n` as a zero-delay event.
  static void wake(Simulator& sim, WaitNode& n) {
    if (n.handle) {
      sim.scheduleResume(0, n.handle);
    } else {
      sim.schedule(0, [node = &n] { node->callback(*node); });
    }
  }

 private:
  WaitNode* head_ = nullptr;
  WaitNode* tail_ = nullptr;
  std::size_t size_ = 0;
};

/// Condition-variable-like wake-up point for simulation coroutines.
///
/// A process co_awaits `event.wait()`; another process calls notifyAll() /
/// notifyOne(). Woken coroutines resume as zero-delay events, i.e. later in
/// the same cycle, never re-entrantly inside the notifier. As with condition
/// variables, waiters must re-check their predicate after waking.
class SimEvent {
 public:
  explicit SimEvent(Simulator& sim) : sim_(&sim) {}

  /// The awaiter is the queue node, so it lives in the waiting frame.
  struct Awaiter : WaitNode {
    SimEvent* ev;
    explicit Awaiter(SimEvent& e) : ev(&e) {}
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      ev->park(*this);
    }
    void await_resume() const noexcept {}
  };

  [[nodiscard]] Awaiter wait() { return Awaiter{*this}; }

  /// Parks a node (coroutine or callback) until the next notification.
  void park(WaitNode& n) { waiters_.push(n); }

  void notifyAll() {
    while (WaitNode* n = waiters_.pop()) WaitQueue::wake(*sim_, *n);
  }

  void notifyOne() {
    if (WaitNode* n = waiters_.pop()) WaitQueue::wake(*sim_, *n);
  }

  [[nodiscard]] std::size_t waiterCount() const { return waiters_.size(); }

  /// Forgets all parked waiters without resuming them. Only sound right
  /// after the owning simulator's destroyProcesses(): the recorded nodes
  /// live in destroyed coroutine frames then, and recycling the event for
  /// a fresh set of processes must not resume them.
  void clearWaiters() { waiters_.clear(); }

 private:
  Simulator* sim_;
  WaitQueue waiters_;
};

/// Counting semaphore with FIFO wake order.
///
/// Used for mutual exclusion and for modelling single-resource arbitration
/// (e.g. a bus grants requests in arrival order). release() hands ownership
/// directly to the oldest waiter, so the resource is never stolen by a
/// late-arriving requester in the same cycle. Waiters are coroutines
/// (acquire()) or callback nodes (tryAcquire()), queued in one FIFO.
class Semaphore {
 public:
  Semaphore(Simulator& sim, std::uint32_t initial) : sim_(&sim), count_(initial) {}

  struct Awaiter : WaitNode {
    Semaphore* sem;
    explicit Awaiter(Semaphore& s) : sem(&s) {}
    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> h) {
      handle = h;
      return !sem->tryAcquire(*this);  // acquired without suspension
    }
    void await_resume() const noexcept {}
  };

  [[nodiscard]] Awaiter acquire() { return Awaiter{*this}; }

  /// Takes a unit now and returns true, or queues `n` and returns false;
  /// `n` is woken (see WaitNode) once release() hands it a unit.
  bool tryAcquire(WaitNode& n) {
    if (count_ > 0) {
      --count_;
      return true;
    }
    waiters_.push(n);
    return false;
  }

  void release() {
    if (WaitNode* n = waiters_.pop()) {
      WaitQueue::wake(*sim_, *n);
    } else {
      ++count_;
    }
  }

  [[nodiscard]] std::uint32_t available() const { return count_; }
  [[nodiscard]] std::size_t waiterCount() const { return waiters_.size(); }

 private:
  Simulator* sim_;
  std::uint32_t count_;
  WaitQueue waiters_;
};

/// RAII guard for a Semaphore used as a mutex. Acquire with
/// `co_await sem.acquire()`, then construct the guard to release on scope
/// exit (coroutine frames honour destructors across suspensions).
class SemaphoreGuard {
 public:
  explicit SemaphoreGuard(Semaphore& sem) : sem_(&sem) {}
  SemaphoreGuard(const SemaphoreGuard&) = delete;
  SemaphoreGuard& operator=(const SemaphoreGuard&) = delete;
  ~SemaphoreGuard() {
    if (sem_ != nullptr) sem_->release();
  }

 private:
  Semaphore* sem_;
};

}  // namespace eclipse::sim
