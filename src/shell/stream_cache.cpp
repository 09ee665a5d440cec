#include "eclipse/shell/stream_cache.hpp"

#include <algorithm>
#include <stdexcept>

namespace eclipse::shell {

StreamCache::StreamCache(sim::Simulator& sim, mem::SharedSram& sram, std::uint32_t line_bytes,
                         std::uint32_t n_lines, int client_id)
    : sim_(sim),
      sram_(sram),
      line_bytes_(line_bytes),
      line_mask_(static_cast<sim::Addr>(line_bytes) - 1),
      client_(client_id),
      event_(sim),
      lines_(n_lines) {
  if (line_bytes == 0 || (line_bytes & (line_bytes - 1)) != 0) {
    throw std::invalid_argument("StreamCache: line size must be a power of two");
  }
  for (auto& l : lines_) {
    l.fill.cache = this;
    l.fill.line = &l;
    l.fill.done = &StreamCache::onPrefetchFilled;
  }
}

StreamCache::Line* StreamCache::find(sim::Addr line_addr) {
  for (auto& l : lines_) {
    if (l.state != State::Invalid && l.tag == line_addr) return &l;
  }
  return nullptr;
}

StreamCache::Line* StreamCache::pickVictim() {
  Line* best = nullptr;
  for (auto& l : lines_) {
    if (l.state == State::Invalid) return &l;
    if (l.state == State::Valid && (best == nullptr || l.lru < best->lru)) best = &l;
  }
  return best;
}

std::size_t StreamCache::hitWalk(StreamRow& row, sim::Addr addr, std::size_t len, bool writing) {
  std::size_t done = 0;
  while (done < len) {
    const sim::Addr line_addr = alignDown(addr + done);
    Line* l = find(line_addr);
    if (l == nullptr || l->state != State::Valid) break;
    ++row.cache_hits;
    l->lru = ++lru_clock_;
    if (writing) l->dirty = true;
    const std::size_t in_line = static_cast<std::size_t>(addr + done - line_addr);
    done += std::min(len - done, static_cast<std::size_t>(line_bytes_) - in_line);
  }
  return done;
}

sim::Task<void> StreamCache::missWalk(StreamRow& row, sim::Addr addr, std::size_t len,
                                      bool writing) {
  std::size_t done = 0;
  while (done < len) {
    const sim::Addr line_addr = alignDown(addr + done);
    const std::size_t in_line = static_cast<std::size_t>(addr + done - line_addr);
    const std::size_t n = std::min(len - done, static_cast<std::size_t>(line_bytes_) - in_line);
    Line* l = find(line_addr);
    if (l != nullptr && l->state == State::Pending) {
      // The prefetch (or a concurrent fill) is in flight.
      co_await event_.wait();
      continue;
    }
    if (l != nullptr) {
      ++row.cache_hits;
      l->lru = ++lru_clock_;
    } else {
      ++row.cache_misses;
      while ((l = pickVictim()) == nullptr) {
        // Every line is pending a prefetch fill; wait for one to land.
        co_await event_.wait();
      }
      if (l->state == State::Valid) {
        if (l->dirty) {
          // Timing-only eviction flush: the SRAM already holds the current
          // bytes (views write through), so only the bus burst is charged.
          ++row.cache_flushes;
          co_await sram_.touchWrite(line_bytes_, client_);
          l->dirty = false;
        }
        l->state = State::Invalid;
      }
      l->tag = line_addr;
      l->dirty = false;
      l->drop = false;
      l->lru = ++lru_clock_;
      if (writing && in_line == 0 && n == line_bytes_) {
        // Write-allocate without fill: the whole line will be overwritten.
        l->state = State::Valid;
      } else {
        l->state = State::Pending;
        co_await sram_.touchRead(line_bytes_, client_);
        l->state = l->drop ? State::Invalid : State::Valid;
        event_.notifyAll();
        // Invalidated while in flight: walk this line again as a fresh miss.
        if (l->state == State::Invalid) continue;
      }
    }
    if (writing) l->dirty = true;
    done += n;
  }
}

sim::Task<void> StreamCache::flushRange(StreamRow& row, sim::Addr addr, std::uint64_t len) {
  if (len == 0) co_return;
  const sim::Addr first = alignDown(addr);
  const sim::Addr last = alignDown(addr + len - 1);
  for (auto& l : lines_) {
    if (l.state == State::Valid && l.dirty && l.tag >= first && l.tag <= last) {
      ++row.cache_flushes;
      co_await sram_.touchWrite(line_bytes_, client_);
      l.dirty = false;
    }
  }
}

bool StreamCache::dirtyIn(sim::Addr addr, std::uint64_t len) const {
  if (len == 0) return false;
  const sim::Addr first = alignDown(addr);
  const sim::Addr last = alignDown(addr + len - 1);
  return std::any_of(lines_.begin(), lines_.end(), [&](const Line& l) {
    return l.state == State::Valid && l.dirty && l.tag >= first && l.tag <= last;
  });
}

void StreamCache::invalidateRange(StreamRow& row, sim::Addr addr, std::uint64_t len) {
  if (len == 0) return;
  const sim::Addr first = alignDown(addr);
  const sim::Addr last = alignDown(addr + len - 1);
  for (auto& l : lines_) {
    if (l.state == State::Invalid || l.tag < first || l.tag > last) continue;
    if (l.state == State::Valid) {
      if (l.dirty) {
        throw std::logic_error("StreamCache: invalidating a dirty line — window protocol violated");
      }
      l.state = State::Invalid;
      ++row.cache_invalidations;
    } else {
      // In-flight fill for a superseded window: drop the data on arrival.
      l.drop = true;
      ++row.cache_invalidations;
    }
  }
}

void StreamCache::startPrefetch(StreamRow& row, sim::Addr line_addr) {
  if (find(line_addr) != nullptr) return;
  ++row.prefetches;
  // Allocate the line synchronously (so a second prefetch of the same
  // address is suppressed) but fill it in the background.
  Line* target = nullptr;
  for (auto& l : lines_) {
    if (l.state == State::Invalid) {
      target = &l;
      break;
    }
  }
  if (target == nullptr) {
    // No free line and eviction may need a timed flush; cheapest policy:
    // evict the LRU *clean* valid line, otherwise skip the prefetch.
    Line* best = nullptr;
    for (auto& l : lines_) {
      if (l.state == State::Valid && !l.dirty && (best == nullptr || l.lru < best->lru)) best = &l;
    }
    if (best == nullptr) return;
    target = best;
  }
  target->state = State::Pending;
  target->tag = line_addr;
  target->dirty = false;
  target->drop = false;
  target->lru = ++lru_clock_;
  // The fill starts in a zero-delay event, after the access that hinted it.
  sim_.schedule(0, [this, target] { sram_.startTouchRead(target->fill, line_bytes_, client_); });
}

void StreamCache::onPrefetchFilled(mem::Bus::Transfer& t) {
  auto& fill = static_cast<Fill&>(t);
  Line* line = fill.line;
  line->state = line->drop ? State::Invalid : State::Valid;
  fill.cache->event_.notifyAll();
}

}  // namespace eclipse::shell
