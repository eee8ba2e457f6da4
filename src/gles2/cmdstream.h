// VC4-style control-list command stream for the GLES2 context. Real
// VideoCore IV is driven by recorded control lists that the binner/renderer
// consume asynchronously, not by immediate-mode calls; this module gives the
// software context the same shape. Client calls are recorded into a
// replayable CommandList (with dirty-state diffing on the fixed-function
// setters and record-time snapshots of client vertex/index arrays), and the
// open list is submitted to a process-wide "device" of up to
// max(2, hardware threads - 1) consumer threads. Each context's queue is bound
// to one consumer for its lifetime (sticky affinity), so its lists execute
// in FIFO order on one thread while independent contexts execute in
// parallel. A new queue goes to the least-loaded consumer, contexts sharing
// an AluModel share a consumer, and a consumer thread is started only when
// every existing one already serves a live queue. Lists never migrate
// between consumers: besides ordering, keeping a context on one thread
// keeps its allocations in one malloc arena (see Device in cmdstream.cc).
//
// Bit-identity argument: a recorded command is a closure that re-enters the
// very public Context method the client called. On a consumer thread
// recording is suppressed (CommandQueue::Recording() is false there), so the
// original immediate-mode body runs unchanged, in the original call order,
// against state produced by the same calls — framebuffer bytes, ALU/SFU/TMU
// counts, GL errors and trap/abort semantics are identical to immediate
// mode by construction. The only calls that need more than re-entry are
// draws touching client-owned memory (vertex arrays, client index arrays):
// those are snapshotted at record time, exactly when the GL contract says
// the pointers must be readable, and replayed through
// Context::ReplayRecordedDraw. Dirty-state diffing only ever elides a
// setter that is provably a no-op (valid arguments, identical to the
// shadowed current state), so elision cannot change observable state or
// error order either.
//
// Failure model: a list the device drops (seeded kCmdSubmit fault, or a
// command escaping with an exception) marks the queue submit-failed. While
// the flag is set the shadow state is suspect, so diffing stops eliding and
// draws stop recording; the context's next sync point latches
// GL_OUT_OF_MEMORY + GL_INNOCENT_CONTEXT_RESET (the client did nothing
// wrong) and resynchronizes the shadow from the context's real state.
#ifndef MGPU_GLES2_CMDSTREAM_H_
#define MGPU_GLES2_CMDSTREAM_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "gles2/enums.h"

namespace mgpu::gles2 {

class Context;

namespace cmd {

struct Consumer;  // one device thread and its FIFO (cmdstream.cc)

// One client vertex array captured at record time: the snapshot bytes are
// swapped into attribute `index` (as a client pointer) around the replayed
// draw on the device thread.
struct AttribCopy {
  GLuint index = 0;
  std::shared_ptr<std::vector<std::uint8_t>> bytes;
};

// Record / elide / submit tallies, exposed through
// Context::command_stream_stats() for the tests and benches. All zero in
// immediate mode.
struct Stats {
  std::uint64_t recorded = 0;         // commands recorded into lists
  std::uint64_t elided = 0;           // setters dropped by dirty diffing
  std::uint64_t draws = 0;            // draws recorded (incl. snapshots)
  std::uint64_t inline_syncs = 0;     // draws that fell back to sync+inline
  std::uint64_t sync_points = 0;      // Context::Sync() flush+joins
  std::uint64_t lists_submitted = 0;  // lists handed to the device
  std::uint64_t lists_executed = 0;   // lists the device completed
  std::uint64_t lists_dropped = 0;    // lists lost (fault / exception)
};

// Process-wide device counters, for the tests. Entry i describes the i-th
// consumer thread started; the vectors' size is the number started.
struct DeviceStats {
  std::vector<int> live_queues;               // queues bound to it now
  std::vector<std::uint64_t> lists_executed;  // lists it completed
};
[[nodiscard]] DeviceStats device_stats();

// A replayable sequence of recorded commands. Each command re-enters the
// owning context's public API on the device thread.
class CommandList {
 public:
  using Cmd = std::function<void(Context&)>;

  void Push(Cmd c) { cmds_.push_back(std::move(c)); }
  [[nodiscard]] std::size_t size() const { return cmds_.size(); }
  [[nodiscard]] bool empty() const { return cmds_.empty(); }
  // Runs every command in record order. A command that throws aborts the
  // rest of the list (the device treats that as a dropped list).
  void Execute(Context& ctx);

 private:
  std::vector<Cmd> cmds_;
};

// Deep-copies a client float array for deferred replay (uniform uploads).
// Null input / non-positive count stay null, so replay passes the same
// null pointer the client did.
inline std::shared_ptr<std::vector<GLfloat>> CopyFloats(const GLfloat* v,
                                                        GLsizei count,
                                                        int comps) {
  if (v == nullptr || count <= 0) return nullptr;
  return std::make_shared<std::vector<GLfloat>>(
      v, v + static_cast<std::size_t>(count) * static_cast<std::size_t>(comps));
}
inline const GLfloat* FloatArg(
    const std::shared_ptr<std::vector<GLfloat>>& copy) {
  return copy ? copy->data() : nullptr;
}

// Per-context recording queue. Construction registers with the process-wide
// submit device, which binds it to one consumer thread (starting one if
// needed); destruction flushes, joins and unregisters. All methods except
// the device-side counters are called from the owning context's client
// thread only, per the GL threading model (one context, one thread).
class CommandQueue {
 public:
  CommandQueue(Context* owner, std::size_t attrib_count);
  ~CommandQueue();
  CommandQueue(const CommandQueue&) = delete;
  CommandQueue& operator=(const CommandQueue&) = delete;

  // True when the calling thread should record (any client thread); false
  // on a device consumer thread, where replayed closures must run the
  // original immediate-mode bodies.
  [[nodiscard]] bool Recording() const;

  // Records an opaque command (the generic path for calls that need no
  // shadowing beyond argument deep-copies, which the caller bakes into the
  // closure). Auto-flushes when the open list reaches kAutoFlush commands.
  void Push(std::function<void(Context&)> cmd);

  // Fixed-function setters with dirty-state diffing: a call with valid
  // arguments identical to the shadowed state is elided; anything else —
  // unknown shadow, changed value, or invalid arguments (whose GL error
  // must surface at execution, in order) — is recorded.
  void Enable(GLenum cap);
  void Disable(GLenum cap);
  void Viewport(GLint x, GLint y, GLsizei w, GLsizei h);
  void Scissor(GLint x, GLint y, GLsizei w, GLsizei h);
  void ClearColor(GLfloat r, GLfloat g, GLfloat b, GLfloat a);
  void BlendFunc(GLenum src, GLenum dst);
  void DepthFunc(GLenum func);
  void DepthMask(GLboolean flag);
  void ColorMask(GLboolean r, GLboolean g, GLboolean b, GLboolean a);
  void CullFace(GLenum mode);
  void FrontFace(GLenum dir);
  void PixelStorei(GLenum pname, GLint value);

  // Attribute / buffer-binding mutators: always recorded, and additionally
  // mirrored into the shadow the draw-time snapshot decisions read. The
  // shadow update replicates the context's own validation, so it tracks
  // exactly the state the deferred execution will produce.
  void EnableVertexAttribArray(GLuint index);
  void DisableVertexAttribArray(GLuint index);
  void VertexAttribPointer(GLuint index, GLint size, GLenum type,
                           GLboolean normalized, GLsizei stride,
                           const void* pointer);
  void BindBuffer(GLenum target, GLuint id);
  void DeleteBuffers(GLsizei n, const GLuint* ids);

  // Draw recording. True = recorded (possibly with client-array
  // snapshots); false = this draw cannot be recorded faithfully (or the
  // queue is submit-failed) and the caller must Sync() and run it inline.
  bool DrawArrays(GLenum mode, GLint first, GLsizei count);
  bool DrawElements(GLenum mode, GLsizei count, GLenum type,
                    const void* indices);

  // Submits the open list to the device (no-op when empty) / waits until
  // every submitted list has executed.
  void Flush();
  void Join();

  // Observes-and-clears the submit-failure latch. Must be called with the
  // device idle for this queue (i.e. after Join); a taken failure resyncs
  // the shadow from the owning context's real state.
  bool TakeSubmitFailure();

  // Stat hooks for the owning context.
  void NoteInlineSync() { ++stats_.inline_syncs; }
  void NoteSyncPoint() { ++stats_.sync_points; }
  [[nodiscard]] Stats stats() const;

 private:
  friend class Device;

  // Shadow of the context's fixed-function state, used only to prove
  // setters redundant. Every field starts unknown; invalid setter calls
  // leave it untouched (they do not change context state either).
  struct FfShadow {
    bool scissor_test = false, scissor_test_known = false;
    bool depth_test = false, depth_test_known = false;
    bool blend = false, blend_known = false;
    bool cull = false, cull_known = false;
    GLint vp[4] = {0, 0, 0, 0};
    bool vp_known = false;
    GLint sc[4] = {0, 0, 0, 0};
    bool sc_known = false;
    GLfloat clear[4] = {0, 0, 0, 0};
    bool clear_known = false;
    GLenum blend_src = 0, blend_dst = 0;
    bool blend_func_known = false;
    GLenum depth_func = 0;
    bool depth_func_known = false;
    GLboolean depth_mask = GL_TRUE;
    bool depth_mask_known = false;
    GLboolean color_mask[4] = {GL_TRUE, GL_TRUE, GL_TRUE, GL_TRUE};
    bool color_mask_known = false;
    GLenum cull_face = 0;
    bool cull_face_known = false;
    GLenum front_face = 0;
    bool front_face_known = false;
    GLint unpack = 0;
    bool unpack_known = false;
    GLint pack = 0;
    bool pack_known = false;
  };

  // Shadow of one attribute binding — the fields the draw-time snapshot
  // decision needs, maintained with the same validation the context
  // applies. Defaults match AttribState.
  struct AttribShadow {
    bool enabled = false;
    GLint size = 4;
    GLenum type = GL_FLOAT;
    GLsizei stride = 0;
    const void* pointer = nullptr;
    GLuint buffer = 0;
  };

  // Elision is only sound while the shadow is trusted; a dropped list means
  // recorded state changes never happened, so everything records until the
  // next sync resyncs.
  [[nodiscard]] bool CanElide() const {
    return !submit_failed_.load(std::memory_order_acquire);
  }
  void SetCap(GLenum cap, bool on);
  [[nodiscard]] bool HasClientAttribs() const;
  // Copies every enabled client vertex array covering vertices
  // [0, max_vertex]. False when a snapshot would exceed kMaxSnapshotBytes
  // (caller falls back to sync+inline).
  bool SnapshotClientAttribs(GLuint max_vertex,
                             std::shared_ptr<std::vector<AttribCopy>>* out);
  // Rebuilds the shadow from the owning context's real state (device must
  // be idle). Fixed-function shadow resets to all-unknown.
  void ResyncShadow();

  Context* owner_;
  // Affinity key: the owner's AluModel. Queues sharing one share a consumer.
  const void* alu_key_;
  // The consumer this queue is bound to; set once by registration.
  Consumer* consumer_ = nullptr;
  CommandList open_;
  FfShadow ff_;
  std::vector<AttribShadow> attribs_;
  GLuint array_buffer_ = 0;
  GLuint element_array_buffer_ = 0;
  Stats stats_;

  // Set by the device (drop or mid-list exception), cleared by
  // TakeSubmitFailure on the client thread.
  std::atomic<bool> submit_failed_{false};
  // Device-side completion counters (the rest of Stats is client-side).
  std::atomic<std::uint64_t> lists_executed_{0};
  std::atomic<std::uint64_t> lists_dropped_{0};
  // Lists submitted but not yet retired; guarded by the consumer's mutex
  // (its backpressure and Join predicates wait on it).
  int in_flight_ = 0;
};

}  // namespace cmd
}  // namespace mgpu::gles2

#endif  // MGPU_GLES2_CMDSTREAM_H_
