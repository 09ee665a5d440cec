#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <ctime>
#include <stdexcept>

#include "eclipse/sim/prng.hpp"

namespace perfbench {

using namespace eclipse;

namespace {

struct ClassDef {
  JobClass cls;
  double share;  ///< of the plan; the first class takes the remainder
  int variants;  ///< distinct clips the seed draws for the class
};

// The shares are a synthetic choice: no traffic record stands behind them.
// Each class is there for the layer it exercises:
// - tiny 32x32 decodes (the rest, about two thirds) and encodes (22%):
//   their cost is almost all control plane (recycle, configure over the
//   PI-bus, teardown, the serve and farm queues), and the encodes take the
//   EncodeApp path through the same workers;
// - the pinned 96x80 decode (10%): a job whose simulated totals are known
//   exactly, with a real simulation share;
// - dual decodes on a 64 KiB SRAM (3%): a second instance shape, so each
//   one costs cold builds (farm.build_ms_per_cold);
// - QCIF decodes (3%, "a few"): the longest jobs, behind which the tiny
//   jobs queue (farm.queue_ms_p50, farm.worker_busy).
constexpr ClassDef kClasses[kJobClasses] = {
    {JobClass::TinyDecode, 0.0, 4},
    {JobClass::TinyEncode, 0.22, 2},
    {JobClass::PinDecode, 0.10, 1},
    {JobClass::DualDecode, 0.03, 1},
    {JobClass::QcifDecode, 0.03, 2},
};

std::string specFor(JobClass c, std::uint64_t clip_seed) {
  const std::string s = std::to_string(clip_seed);
  switch (c) {
    case JobClass::TinyDecode: return "tiny-dec width=32 height=32 seed=" + s;
    case JobClass::TinyEncode: return "tiny-enc kind=encode width=32 height=32 seed=" + s;
    // The WorkloadDesc defaults are the decode-pin workload.
    case JobClass::PinDecode: return "pin";
    case JobClass::DualDecode:
      return "dual kind=decode+decode seed=" + s + " config:sram.size_bytes=65536";
    case JobClass::QcifDecode: return "qcif width=176 height=144 seed=" + s;
  }
  return {};
}

/// Index of the first spec of each class in distinctSpecs() order.
std::array<std::size_t, kJobClasses> specOffsets() {
  std::array<std::size_t, kJobClasses> off{};
  std::size_t at = 0;
  for (std::size_t c = 0; c < kJobClasses; ++c) {
    off[c] = at;
    at += static_cast<std::size_t>(kClasses[c].variants);
  }
  return off;
}

/// One tenant connection: ECL1 magic, Hello, HelloOk. Closes with Quit.
class Conn {
 public:
  Conn(std::uint16_t port, const std::string& tenant) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("loadgen: socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("loadgen: cannot connect to port " + std::to_string(port));
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    serve::ByteWriter w;
    w.putStr(tenant);
    serve::Frame f;
    if (::send(fd_, serve::kMagic, sizeof serve::kMagic, MSG_NOSIGNAL) != sizeof serve::kMagic ||
        !serve::sendFrame(fd_, serve::FrameType::Hello, w.bytes()) || !serve::recvFrame(fd_, f) ||
        f.type != serve::FrameType::HelloOk) {
      ::close(fd_);
      throw std::runtime_error("loadgen: handshake failed for tenant " + tenant);
    }
  }
  ~Conn() {
    serve::sendFrame(fd_, serve::FrameType::Quit, {});
    ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

}  // namespace

std::array<std::size_t, kJobClasses> composition(std::size_t n) {
  std::array<std::size_t, kJobClasses> counts{};
  std::size_t rest = n;
  for (std::size_t c = 1; c < kJobClasses; ++c) {
    counts[c] = static_cast<std::size_t>(std::floor(static_cast<double>(n) * kClasses[c].share));
    rest -= counts[c];
  }
  counts[0] = rest;
  return counts;
}

LoadPlan distinctSpecs(std::uint64_t seed) {
  LoadPlan p;
  for (std::size_t c = 0; c < kJobClasses; ++c) {
    for (int v = 0; v < kClasses[c].variants; ++v) {
      p.specs.push_back(
          specFor(kClasses[c].cls, clipSeed(seed, 100 + c * 10 + static_cast<std::uint64_t>(v))));
      p.spec_class.push_back(kClasses[c].cls);
    }
  }
  return p;
}

LoadPlan makeLoadPlan(std::uint64_t seed, std::size_t n, double rate) {
  LoadPlan p = distinctSpecs(seed);
  const auto counts = composition(n);
  const auto offsets = specOffsets();
  std::vector<std::size_t> order;
  order.reserve(n);
  for (std::size_t c = 0; c < kJobClasses; ++c) order.insert(order.end(), counts[c], c);

  sim::Prng rng(splitmix64(seed));
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  double t = 0.0;
  for (std::size_t c : order) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    PlannedJob j;
    j.spec = offsets[c] + rng.below(static_cast<std::uint64_t>(kClasses[c].variants));
    j.tenant = static_cast<int>(rng.below(2));
    j.due_s = t;
    p.jobs.push_back(j);
  }
  return p;
}

LoadPlan warmupPlan(std::uint64_t seed) {
  LoadPlan p = distinctSpecs(seed);
  for (std::size_t i = 0; i < p.specs.size(); ++i) {
    p.jobs.push_back(PlannedJob{i, static_cast<int>(i % 2), 0.0});
  }
  return p;
}

ScopedAffinity::ScopedAffinity(Side side) {
  if (pthread_getaffinity_np(pthread_self(), sizeof saved_, &saved_) != 0) return;
  if (CPU_COUNT(&saved_) < 3) return;
  int first = 0;
  while (!CPU_ISSET(first, &saved_)) ++first;
  cpu_set_t want;
  CPU_ZERO(&want);
  if (side == Side::Client) {
    CPU_SET(first, &want);
  } else {
    CPU_OR(&want, &want, &saved_);
    CPU_CLR(first, &want);
  }
  changed_ = pthread_setaffinity_np(pthread_self(), sizeof want, &want) == 0;
}

ScopedAffinity::~ScopedAffinity() {
  if (changed_) pthread_setaffinity_np(pthread_self(), sizeof saved_, &saved_);
}

DriveResult drive(const LoadPlan& plan, std::uint16_t port,
                  const std::array<std::string, 2>& tenants, double grace_s, bool spin) {
  DriveResult out;
  const std::size_t n = plan.jobs.size();
  out.jobs.resize(n);
  try {
    Conn c0(port, tenants[0]);
    Conn c1(port, tenants[1]);
    const int fds[2] = {c0.fd(), c1.fd()};
    out.origin = Clock::now();
    auto since = [&] { return std::chrono::duration<double>(Clock::now() - out.origin).count(); };
    const double deadline = (n > 0 ? plan.jobs.back().due_s : 0.0) + grace_s;

    std::size_t next = 0;
    std::size_t done = 0;
    while (done < n) {
      const double now = since();
      if (next < n && plan.jobs[next].due_s <= now) {
        const PlannedJob& j = plan.jobs[next];
        serve::ByteWriter w;
        w.putU64(next + 1);  // req_id: plan index + 1
        w.putStr(plan.specs[j.spec]);
        // Stamped before the write: the write itself can be held up while
        // the server side runs, and that delay belongs to the job.
        out.jobs[next].sent_s = since();
        if (!serve::sendFrame(fds[j.tenant], serve::FrameType::Submit, w.bytes())) {
          throw serve::ProtocolError("submit write failed");
        }
        out.jobs[next].sent = true;
        ++next;
        continue;
      }
      if (now > deadline) {
        out.error = "timed out waiting for " + std::to_string(n - done) + " replies";
        return out;
      }
      const double wait = spin ? 0.0 : (next < n ? plan.jobs[next].due_s : deadline) - now;
      timespec ts{};
      ts.tv_sec = static_cast<time_t>(wait);
      ts.tv_nsec = static_cast<long>((wait - static_cast<double>(ts.tv_sec)) * 1e9);
      pollfd pf[2] = {{fds[0], POLLIN, 0}, {fds[1], POLLIN, 0}};
      if (::ppoll(pf, 2, &ts, nullptr) < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("loadgen: ppoll failed");
      }
      for (const pollfd& p : pf) {
        if ((p.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        serve::Frame f;
        if (!serve::recvFrame(p.fd, f)) throw serve::ProtocolError("server closed a connection");
        const double t = since();
        serve::ByteReader rd(f.payload);
        if (f.type == serve::FrameType::Error) {
          throw serve::ProtocolError("server error: " + rd.getStr());
        }
        if (f.type != serve::FrameType::Accepted && f.type != serve::FrameType::Rejected &&
            f.type != serve::FrameType::Result) {
          continue;
        }
        const std::uint64_t id = rd.getU64();
        if (id == 0 || id > next) throw serve::ProtocolError("reply for a job not sent");
        JobOutcome& o = out.jobs[id - 1];
        // A Result may overtake its Accepted; each job gets one final reply.
        if (f.type == serve::FrameType::Accepted) {
          o.accepted = true;
          o.reply_s = t;
        } else if (o.answered || o.rejected) {
          throw serve::ProtocolError("second final reply for a job");
        } else if (f.type == serve::FrameType::Rejected) {
          o.rejected = true;
          o.reason = static_cast<serve::RejectReason>(rd.getU8());
          o.reply_s = t;
          ++done;
        } else {
          o.result = serve::decodeResult(rd);
          o.result.req_id = id;
          o.answered = true;
          o.result_s = t;
          ++done;
        }
      }
    }
    out.complete = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

}  // namespace perfbench
