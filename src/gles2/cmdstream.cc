#include "gles2/cmdstream.h"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>

#include "common/fault.h"
#include "common/threadpool.h"
#include "gles2/context.h"

namespace mgpu::gles2::cmd {
namespace {

// Commands per list before the open list auto-submits: long enough to
// amortize the submit handshake, short enough that the device pipeline
// stays busy while the client keeps recording.
constexpr std::size_t kAutoFlush = 256;
// Lists one queue may have in flight before Flush blocks (backpressure, so
// a producer that never syncs cannot queue unbounded memory).
constexpr int kMaxInFlight = 64;
// Per-draw cap on snapshotted client-array bytes; a draw that would copy
// more falls back to sync+inline instead of duplicating a huge array.
constexpr std::uint64_t kMaxSnapshotBytes = 1ull << 30;

// Set for the lifetime of every consumer thread: replayed closures run
// there and must execute, not record.
thread_local bool t_on_device = false;

int ElemSize(GLenum type) {
  switch (type) {
    case GL_FLOAT:
      return 4;
    case GL_SHORT:
    case GL_UNSIGNED_SHORT:
      return 2;
    default:  // GL_BYTE / GL_UNSIGNED_BYTE (the shadow holds valid types)
      return 1;
  }
}

}  // namespace

void CommandList::Execute(Context& ctx) {
  for (const Cmd& c : cmds_) c(ctx);
}

// One consumer thread of the device with its own FIFO. The queues bound to
// it are drained in arrival order — the fairness model real VC4 gives
// multiple clients of one GPU, per consumer.
struct Consumer {
  struct Pending {
    CommandQueue* q;
    CommandList list;
  };

  std::mutex mu;
  std::condition_variable work_cv;  // list queued or stop requested
  std::condition_variable done_cv;  // list retired (backpressure / Join)
  std::deque<Pending> fifo;          // guarded by mu
  std::uint64_t lists_executed = 0;  // guarded by mu
  bool stop = false;                 // guarded by mu
  int live_queues = 0;               // guarded by Device::mu_
  std::thread thread;                // last: started once the rest exists
};

// The process-wide submit device: up to max(2, hardware threads - 1)
// consumers, each with its own FIFO. A queue binds to one consumer at
// registration and stays there, so one context's lists run in order on one
// thread while independent contexts run in parallel. Lists never migrate:
// a context moving between threads spreads its allocations over glibc's
// per-thread malloc arenas. Placements that let a single context migrate
// (a shared FIFO, or round-robin placement of short-lived contexts) raised
// the peak RSS of e2ebench's paper_large workload from 28 MB to 41-56 MB
// on a 4-vCPU x86_64 host.
//
// Assignment: a queue whose AluModel another live queue already counts
// into joins that queue's consumer (draws mutate the model, and abort rolls
// it back, so two consumers on one model would race). Otherwise it goes to
// the consumer with the fewest live queues, and a new consumer thread is
// started only when every existing one has a live queue — a process that
// creates and destroys contexts in turn keeps one device thread.
//
// One hardware thread is left to the client that records. With a consumer
// on every CPU the client competes with them for a core, and a consumer
// cannot pass its queued lists on when the host takes its CPU away, so
// throughput and latency swing with the host's load. On e2ebench's
// gl_tenants (one client thread, 4-vCPU x86_64 shared host), eight
// interleaved runs each gave 4 consumers a median of 3396 jobs/s and a
// job_ms.p95 of 3.84 ms with quartile spreads of 153/s and 0.22 ms, and
// 3 consumers 3050 jobs/s and 4.21 ms with spreads of 80/s and 0.11 ms.
//
// A function-local static so no thread exists until some context records;
// the consumers are joined at process exit.
class Device {
 public:
  static Device& Get() {
    static Device device;
    return device;
  }

  void Register(CommandQueue* q) {
    std::lock_guard<std::mutex> lk(mu_);
    Consumer* pick = nullptr;
    for (const CommandQueue* other : queues_) {
      if (other->alu_key_ == q->alu_key_) {
        pick = other->consumer_;
        break;
      }
    }
    if (pick == nullptr) {
      for (const auto& c : consumers_) {
        if (pick == nullptr || c->live_queues < pick->live_queues) {
          pick = c.get();
        }
      }
      if (pick == nullptr ||
          (pick->live_queues > 0 &&
           consumers_.size() < static_cast<std::size_t>(max_consumers_))) {
        pick = StartConsumer();
      }
    }
    ++pick->live_queues;
    q->consumer_ = pick;
    queues_.push_back(q);
  }

  void Unregister(CommandQueue* q) {
    std::lock_guard<std::mutex> lk(mu_);
    --q->consumer_->live_queues;
    queues_.erase(std::remove(queues_.begin(), queues_.end(), q),
                  queues_.end());
  }

  // Hands a list to the queue's consumer. Blocks while the queue is at its
  // in-flight cap. The seeded kCmdSubmit fault drops the list wholesale
  // here — the "lost control list" the fault tests sweep.
  static void Submit(CommandQueue* q, CommandList list) {
    Consumer& c = *q->consumer_;
    std::unique_lock<std::mutex> lk(c.mu);
    c.done_cv.wait(lk, [q] { return q->in_flight_ < kMaxInFlight; });
    if (fault::ShouldFail(fault::Site::kCmdSubmit)) {
      q->submit_failed_.store(true, std::memory_order_release);
      q->lists_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    ++q->in_flight_;
    c.fifo.push_back(Consumer::Pending{q, std::move(list)});
    c.work_cv.notify_one();
  }

  // Waits until every list submitted by `q` has retired.
  static void Join(CommandQueue* q) {
    Consumer& c = *q->consumer_;
    std::unique_lock<std::mutex> lk(c.mu);
    c.done_cv.wait(lk, [q] { return q->in_flight_ == 0; });
  }

  // Fault-registry quiesce hook: flush and drain every queue so deferred
  // work executes under the current armed state before it changes. Runs on
  // the arming thread; the fault threading contract guarantees no client
  // thread is recording concurrently.
  void QuiesceAll() {
    std::vector<CommandQueue*> qs;
    {
      std::lock_guard<std::mutex> lk(mu_);
      qs = queues_;
    }
    for (CommandQueue* q : qs) q->Flush();
    for (CommandQueue* q : qs) Join(q);
  }

  DeviceStats stats() {
    DeviceStats s;
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& c : consumers_) {
      s.live_queues.push_back(c->live_queues);
      const std::lock_guard<std::mutex> clk(c->mu);
      s.lists_executed.push_back(c->lists_executed);
    }
    return s;
  }

 private:
  Device() : max_consumers_(std::max(2, common::DefaultThreadCount() - 1)) {
    // Hook last: from here on Arm/Disarm/Hits drain this device first.
    fault::SetQuiesceHook([] { Device::Get().QuiesceAll(); });
  }

  ~Device() {
    // Unhook first so a late Arm/Disarm cannot call into a dying device.
    fault::SetQuiesceHook(nullptr);
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& c : consumers_) {
      {
        const std::lock_guard<std::mutex> clk(c->mu);
        c->stop = true;
      }
      c->work_cv.notify_all();
    }
    for (const auto& c : consumers_) c->thread.join();
  }

  // Caller holds mu_. Reserves first so a failed push_back cannot destroy
  // a consumer whose thread is already running.
  Consumer* StartConsumer() {
    consumers_.reserve(consumers_.size() + 1);
    auto c = std::make_unique<Consumer>();
    c->thread = std::thread(&Device::Loop, c.get());
    consumers_.push_back(std::move(c));
    return consumers_.back().get();
  }

  static void Loop(Consumer* c) {
    t_on_device = true;
    std::unique_lock<std::mutex> lk(c->mu);
    for (;;) {
      c->work_cv.wait(lk, [c] { return c->stop || !c->fifo.empty(); });
      if (c->fifo.empty()) return;  // stop requested and drained
      Consumer::Pending p = std::move(c->fifo.front());
      c->fifo.pop_front();
      lk.unlock();
      // The queue outlives its in-flight lists: ~CommandQueue joins before
      // unregistering, so `p.q` and its owner context are alive here.
      bool ok = true;
      try {
        p.list.Execute(*p.q->owner_);
      } catch (...) {
        // A command escaping with an exception means the rest of the list
        // is lost — same client-visible contract as a dropped submit.
        ok = false;
      }
      if (ok) {
        p.q->lists_executed_.fetch_add(1, std::memory_order_relaxed);
      } else {
        p.q->submit_failed_.store(true, std::memory_order_release);
        p.q->lists_dropped_.fetch_add(1, std::memory_order_relaxed);
      }
      lk.lock();
      if (ok) ++c->lists_executed;
      --p.q->in_flight_;
      c->done_cv.notify_all();
    }
  }

  const int max_consumers_;
  std::mutex mu_;
  std::vector<CommandQueue*> queues_;                  // guarded by mu_
  std::vector<std::unique_ptr<Consumer>> consumers_;  // guarded by mu_
};

DeviceStats device_stats() { return Device::Get().stats(); }

CommandQueue::CommandQueue(Context* owner, std::size_t attrib_count)
    : owner_(owner), alu_key_(owner->alu_), attribs_(attrib_count) {
  Device::Get().Register(this);
}

CommandQueue::~CommandQueue() {
  Flush();
  Device::Join(this);
  Device::Get().Unregister(this);
}

bool CommandQueue::Recording() const { return !t_on_device; }

void CommandQueue::Push(std::function<void(Context&)> cmd) {
  ++stats_.recorded;
  open_.Push(std::move(cmd));
  if (open_.size() >= kAutoFlush) Flush();
}

void CommandQueue::Flush() {
  if (open_.empty()) return;
  ++stats_.lists_submitted;
  Device::Submit(this, std::move(open_));
  open_ = CommandList();
}

void CommandQueue::Join() { Device::Join(this); }

bool CommandQueue::TakeSubmitFailure() {
  if (!submit_failed_.exchange(false, std::memory_order_acq_rel)) {
    return false;
  }
  ResyncShadow();
  return true;
}

Stats CommandQueue::stats() const {
  Stats s = stats_;
  s.lists_executed = lists_executed_.load(std::memory_order_relaxed);
  s.lists_dropped = lists_dropped_.load(std::memory_order_relaxed);
  return s;
}

void CommandQueue::ResyncShadow() {
  const std::size_t n = std::min(attribs_.size(), owner_->attribs_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& a = owner_->attribs_[i];
    attribs_[i] = AttribShadow{a.enabled, a.size,    a.type,
                               a.stride,  a.pointer, a.buffer};
  }
  array_buffer_ = owner_->array_buffer_;
  element_array_buffer_ = owner_->element_array_buffer_;
}

// --- attribute / buffer shadow mirrors -----------------------------------

void CommandQueue::EnableVertexAttribArray(GLuint index) {
  if (index < attribs_.size()) attribs_[index].enabled = true;
  Push([index](Context& c) { c.EnableVertexAttribArray(index); });
}

void CommandQueue::DisableVertexAttribArray(GLuint index) {
  if (index < attribs_.size()) attribs_[index].enabled = false;
  Push([index](Context& c) { c.DisableVertexAttribArray(index); });
}

void CommandQueue::VertexAttribPointer(GLuint index, GLint size, GLenum type,
                                       GLboolean normalized, GLsizei stride,
                                       const void* pointer) {
  const bool type_ok = type == GL_FLOAT || type == GL_UNSIGNED_BYTE ||
                       type == GL_BYTE || type == GL_SHORT ||
                       type == GL_UNSIGNED_SHORT;
  if (index < attribs_.size() && size >= 1 && size <= 4 && stride >= 0 &&
      type_ok) {
    AttribShadow& a = attribs_[index];
    a.size = size;
    a.type = type;
    a.stride = stride;
    a.pointer = pointer;
    a.buffer = array_buffer_;
  }
  Push([index, size, type, normalized, stride, pointer](Context& c) {
    c.VertexAttribPointer(index, size, type, normalized, stride, pointer);
  });
}

void CommandQueue::BindBuffer(GLenum target, GLuint id) {
  if (target == GL_ARRAY_BUFFER) {
    array_buffer_ = id;
  } else if (target == GL_ELEMENT_ARRAY_BUFFER) {
    element_array_buffer_ = id;
  }
  Push([target, id](Context& c) { c.BindBuffer(target, id); });
}

void CommandQueue::DeleteBuffers(GLsizei n, const GLuint* ids) {
  std::shared_ptr<std::vector<GLuint>> copy;
  if (ids != nullptr && n > 0) {
    copy = std::make_shared<std::vector<GLuint>>(ids, ids + n);
    for (const GLuint id : *copy) {
      if (id == 0) continue;
      if (array_buffer_ == id) array_buffer_ = 0;
      if (element_array_buffer_ == id) element_array_buffer_ = 0;
      // Mirrors the context's delete-detach semantics: attributes sourcing
      // a deleted buffer fall back to a null client pointer.
      for (AttribShadow& a : attribs_) {
        if (a.buffer == id) {
          a.buffer = 0;
          a.pointer = nullptr;
        }
      }
    }
  }
  Push([n, copy](Context& c) {
    c.DeleteBuffers(copy ? static_cast<GLsizei>(copy->size()) : n,
                    copy ? copy->data() : nullptr);
  });
}

// --- draw recording ------------------------------------------------------

bool CommandQueue::HasClientAttribs() const {
  for (const AttribShadow& a : attribs_) {
    if (a.enabled && a.buffer == 0 && a.pointer != nullptr) return true;
  }
  return false;
}

bool CommandQueue::SnapshotClientAttribs(
    GLuint max_vertex, std::shared_ptr<std::vector<AttribCopy>>* out) {
  auto copies = std::make_shared<std::vector<AttribCopy>>();
  for (std::size_t i = 0; i < attribs_.size(); ++i) {
    const AttribShadow& a = attribs_[i];
    if (!a.enabled || a.buffer != 0 || a.pointer == nullptr) continue;
    const std::uint64_t esz =
        static_cast<std::uint64_t>(ElemSize(a.type));
    const std::uint64_t stride =
        a.stride != 0 ? static_cast<std::uint64_t>(a.stride)
                      : static_cast<std::uint64_t>(a.size) * esz;
    // Exactly the bytes the immediate-mode gather may touch for vertices
    // [0, max_vertex]: client arrays carry no size, so this span is what
    // the GL contract obliges the caller to keep readable.
    const std::uint64_t bytes =
        stride * max_vertex + static_cast<std::uint64_t>(a.size) * esz;
    if (bytes > kMaxSnapshotBytes) return false;
    const auto* src = static_cast<const std::uint8_t*>(a.pointer);
    AttribCopy copy;
    copy.index = static_cast<GLuint>(i);
    copy.bytes = std::make_shared<std::vector<std::uint8_t>>(
        src, src + static_cast<std::size_t>(bytes));
    copies->push_back(std::move(copy));
  }
  *out = std::move(copies);
  return true;
}

bool CommandQueue::DrawArrays(GLenum mode, GLint first, GLsizei count) {
  if (!ShadowTrusted()) return false;  // stale shadow: sync, repair, run inline
  // Argument errors (first<0, count<0) and empty draws never read vertex
  // memory, and neither does a draw with no enabled client arrays (VBO
  // contents travel inside the recorded stream) — record those plain.
  if (first < 0 || count <= 0 || !HasClientAttribs()) {
    ++stats_.draws;
    Push([mode, first, count](Context& c) { c.DrawArrays(mode, first, count); });
    return true;
  }
  // Client arrays with a nonzero base vertex would snapshot [0, first)
  // bytes immediate mode never reads; rare enough to just run inline.
  if (first > 0) return false;
  std::shared_ptr<std::vector<AttribCopy>> copies;
  if (!SnapshotClientAttribs(static_cast<GLuint>(count - 1), &copies)) {
    return false;
  }
  ++stats_.draws;
  Push([mode, first, count, copies](Context& c) {
    c.ReplayRecordedDraw(mode, first, count, /*elements=*/false, 0, nullptr,
                         copies);
  });
  return true;
}

bool CommandQueue::DrawElements(GLenum mode, GLsizei count, GLenum type,
                                const void* indices) {
  if (!ShadowTrusted()) return false;
  // Argument errors surface at execution without touching index memory.
  if (count <= 0 ||
      (type != GL_UNSIGNED_BYTE && type != GL_UNSIGNED_SHORT)) {
    ++stats_.draws;
    Push([mode, count, type, indices](Context& c) {
      c.DrawElements(mode, count, type, indices);
    });
    return true;
  }
  const bool client_attribs = HasClientAttribs();
  if (element_array_buffer_ != 0) {
    // Indices live in a VBO whose contents the record stream owns; but
    // with client vertex arrays the snapshot span needs the index range,
    // which is unknowable here — run those inline.
    if (client_attribs) return false;
    ++stats_.draws;
    Push([mode, count, type, indices](Context& c) {
      c.DrawElements(mode, count, type, indices);
    });
    return true;
  }
  if (indices == nullptr) {
    // Null client index pointer: errors at execution, reads nothing.
    ++stats_.draws;
    Push([mode, count, type, indices](Context& c) {
      c.DrawElements(mode, count, type, indices);
    });
    return true;
  }
  // Client index array: copy it now (the GL contract consumes it at the
  // call), and scan the range for the attribute snapshot span.
  const std::size_t esz = type == GL_UNSIGNED_BYTE ? 1 : 2;
  const auto* src = static_cast<const std::uint8_t*>(indices);
  auto idx = std::make_shared<std::vector<std::uint8_t>>(
      src, src + static_cast<std::size_t>(count) * esz);
  std::shared_ptr<std::vector<AttribCopy>> copies;
  if (client_attribs) {
    GLuint minv = ~0u, maxv = 0;
    for (GLsizei i = 0; i < count; ++i) {
      GLuint v;
      if (type == GL_UNSIGNED_BYTE) {
        v = (*idx)[static_cast<std::size_t>(i)];
      } else {
        std::uint16_t raw;
        std::memcpy(&raw, idx->data() + static_cast<std::size_t>(i) * 2, 2);
        v = raw;
      }
      minv = std::min(minv, v);
      maxv = std::max(maxv, v);
    }
    // A min index above 0 would make the snapshot read [0, min) bytes the
    // immediate gather never touches — run inline instead.
    if (minv > 0) return false;
    if (!SnapshotClientAttribs(maxv, &copies)) return false;
  }
  ++stats_.draws;
  Push([mode, count, type, idx, copies](Context& c) {
    c.ReplayRecordedDraw(mode, /*first=*/0, count, /*elements=*/true, type,
                         idx, copies);
  });
  return true;
}

}  // namespace mgpu::gles2::cmd
