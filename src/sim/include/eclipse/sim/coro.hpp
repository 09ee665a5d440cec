#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <optional>
#include <string>
#include <utility>

#include "eclipse/sim/frame_pool.hpp"

namespace eclipse::sim {

class Simulator;

namespace detail {

/// State shared by all Task promises, independent of the result type.
///
/// `continuation` is the coroutine awaiting this task (symmetric transfer on
/// completion). For a *root* process spawned directly on the simulator there
/// is no continuation; instead `root_sim` is set and the simulator is
/// notified on completion so that unhandled exceptions surface from run().
///
/// Frames are allocated through the per-thread frame pool (frame_pool.hpp):
/// a task call costs a free-list pop instead of a heap allocation.
struct PromiseBase {
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;
  Simulator* root_sim = nullptr;

  static void* operator new(std::size_t bytes) { return frame_pool::allocate(bytes); }
  static void operator delete(void* p, std::size_t bytes) noexcept {
    frame_pool::deallocate(p, bytes);
  }

  std::suspend_always initial_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

void notifyRootDone(Simulator& sim, std::exception_ptr exception);

struct FinalAwaiter {
  bool await_ready() const noexcept { return false; }

  template <typename Promise>
  std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
    PromiseBase& p = h.promise();
    if (p.continuation) return p.continuation;
    if (p.root_sim != nullptr) notifyRootDone(*p.root_sim, p.exception);
    return std::noop_coroutine();
  }

  void await_resume() const noexcept {}
};

}  // namespace detail

/// Lazily-started coroutine task integrated with the simulation kernel.
///
/// A Task<T> models a thread of control in the simulated hardware: a
/// coprocessor program, a shell primitive handler, a bus transaction. Tasks
/// compose by `co_await`ing each other; simulated time passes only through
/// awaitables that go via the Simulator (Delay, SimEvent, Semaphore), so a
/// chain of nested tasks with no delays completes in zero simulated cycles.
///
/// Ownership: the Task object owns the coroutine frame and destroys it when
/// the Task goes out of scope. When used as `co_await child()`, the
/// temporary Task lives until the awaiting full-expression resumes, which is
/// exactly the child's lifetime.
template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> value;

    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    detail::FinalAwaiter final_suspend() noexcept { return {}; }
    void return_value(T v) { value.emplace(std::move(v)); }
  };

  using handle_type = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(handle_type h) : h_(h) {}
  Task(Task&& other) noexcept : h_(std::exchange(other.h_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      h_ = std::exchange(other.h_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] handle_type handle() const { return h_; }
  [[nodiscard]] bool done() const { return !h_ || h_.done(); }

  /// Releases ownership of the coroutine frame to the caller.
  handle_type release() { return std::exchange(h_, nullptr); }

  // Awaiter protocol: `co_await task` starts the child and resumes the
  // caller when the child completes.
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
    h_.promise().continuation = cont;
    return h_;
  }
  T await_resume() {
    if (h_.promise().exception) std::rethrow_exception(h_.promise().exception);
    return std::move(*h_.promise().value);
  }

 private:
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = nullptr;
    }
  }
  handle_type h_{};
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    detail::FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() {}
  };

  using handle_type = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(handle_type h) : h_(h) {}
  Task(Task&& other) noexcept : h_(std::exchange(other.h_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      h_ = std::exchange(other.h_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] handle_type handle() const { return h_; }
  [[nodiscard]] bool done() const { return !h_ || h_.done(); }
  handle_type release() { return std::exchange(h_, nullptr); }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
    h_.promise().continuation = cont;
    return h_;
  }
  void await_resume() {
    if (h_.promise().exception) std::rethrow_exception(h_.promise().exception);
  }

 private:
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = nullptr;
    }
  }
  handle_type h_{};
};

}  // namespace eclipse::sim
