// The OpenGL ES 2.0 context: the API surface the paper's GPGPU framework
// programs against. Implements the subset of ES 2.0 the paper's techniques
// exercise, while faithfully enforcing the *restrictions* the paper works
// around: byte-only textures and framebuffers, normalized texture
// coordinates, triangles-only complex geometry, a single fragment output,
// and no texture readback path other than framebuffer ReadPixels.
#ifndef MGPU_GLES2_CONTEXT_H_
#define MGPU_GLES2_CONTEXT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gles2/enums.h"
#include "gles2/objects.h"
#include "gles2/texture.h"
#include "gles2/tiler.h"
#include "glsl/alu.h"
#include "glsl/shader.h"
#include "glsl/simd.h"

namespace mgpu::common {
class ThreadPool;
}

namespace mgpu::gles2 {

// Command-stream types (src/gles2/cmdstream.h): the per-context recording
// queue, its record/submit tallies, and a draw's client-array snapshot.
namespace cmd {
class CommandQueue;
struct Stats;
struct AttribCopy;
}  // namespace cmd

// How fragment colors are quantized into the byte framebuffer. The paper's
// Eq. (2) states floor(f * 255); most real drivers round to nearest. Both
// are provided so the robustness of the pack/unpack algebra can be verified
// under either (see bench_ablation_readback and the packing tests).
enum class FbQuantization { kRoundNearest, kFloorPaper };

// Which shader execution engine draws run on. Three engines, all
// byte-identical in framebuffer output and ALU/SFU/TMU op counts:
//   kBatchedVm  — the production path: fragments are gathered into
//                 kFragBatchWidth-lane SoA batches and the lowered bytecode
//                 executes once per instruction over all lanes
//                 (VmExec::RunBatch), amortizing dispatch and operand
//                 resolution across the batch the way a VC4 QPU runs 16
//                 pixels through one instruction stream.
//   kBytecodeVm — the scalar VM: the same bytecode dispatched once per
//                 fragment. Kept as the first-tier differential oracle for
//                 the batched engine.
//   kTreeWalk   — the tree-walking interpreter, the original reference
//                 oracle, executing the annotated AST directly.
//   kCompiled   — retired alias of kBatchedVm: Context normalizes it at
//                 construction and in SetExecEngine. Kept only because the
//                 benchmark names it; drop it with the next change to the
//                 benchmark.
enum class ExecEngine { kBatchedVm, kBytecodeVm, kTreeWalk, kCompiled };

struct ContextConfig {
  int width = 64;
  int height = 64;
  bool has_depth = true;
  glsl::Limits limits;
  FbQuantization quantization = FbQuantization::kRoundNearest;
  ExecEngine exec_engine = ExecEngine::kBatchedVm;
  int max_texture_size = 4096;
  // Entry cap of the per-worker shading-state cache (see ShadeStateCache):
  // least-recently-drawn entries are evicted beyond this, so a workload
  // cycling hundreds of linked programs cannot grow the cache unboundedly.
  int shade_cache_capacity = 64;
  // Fragment-shading worker count for the tiled pipeline: <= 0 = one
  // worker per hardware thread (default), 1 = serial reference path
  // (shades on the calling thread with the program's own engine, never
  // splits), N > 1 = exactly N workers (capped at 256). Workers claim work
  // items that partition the framebuffer: 64x64 tiles, or — when a draw
  // has fewer non-empty tiles than workers and its estimated fragment work
  // is large — row bands of those tiles. Each worker owns a private engine
  // and ALU-counter shard (merged by summation); band items log their
  // texture-cache lines and the join replays them per tile in the serial
  // path's emission order. So every successful draw produces identical
  // framebuffer bytes and ALU/SFU/TMU op counts, misses included, for
  // every value. (A draw that raises a shader runtime error
  // is aborted *transactionally*: framebuffer, depth and counters are
  // restored to the pre-draw state byte for byte — identical for every
  // engine and worker count — and the GL error / last_draw_error / reset
  // status report the failure; a real GPU would hang or be reset.)
  // Parallel shading requires the bytecode VM engine and a forkable
  // AluModel; otherwise the draw falls back to the serial path.
  int shader_threads = 0;
  // SIMD tier for the batched VM's plane kernels: -1 = auto (MGPU_SIMD env
  // override, else the detected hardware level), 0/1/2 = force
  // scalar/SSE2/AVX2 (clamped to what the host supports). The tier engages
  // under the exact and VideoCore IV ALUs (identity / denormal-flush
  // rounding); reduced-mantissa models such as Mali-400 always run the
  // scalar tier. Results are bit-identical at every tier by construction
  // (see src/glsl/simd.h); this knob exists for A/B benchmarking and CI's
  // SIMD-off leg.
  int simd = -1;
  // Vertex-stage batching under the batched engine (kBatchedVm): -1 = auto
  // (the MGPU_VERTEX_BATCH env override if set — 0 disables — else on),
  // 0 = force the scalar per-vertex reference loop, 1 = force on. When on,
  // vertex shading gathers enabled attributes into the vertex VM's
  // lane-major planes and runs up to kVmLanes vertices per RunBatch pass
  // (inheriting the plane kernels at every SIMD tier), scattering
  // gl_Position / gl_PointSize / varyings back in lane order — bit-identical
  // to the scalar loop in framebuffer bytes, op counts and trap diagnostics
  // (see README). Resolved with the same on-by-default rule as
  // `async_submit`; the knob exists for A/B benchmarking and CI's
  // fallback-off leg.
  int vertex_batch = -1;
  // VC4-style command stream: -1 = auto (the MGPU_ASYNC env override if
  // set — 0 disables — else on), 0 = immediate mode (every call executes
  // inline, the oracle), 1 = force on. When on, every state change and draw
  // is recorded into a replayable CommandList (src/gles2/cmdstream.h) and
  // submitted to a process-wide device, whose consumer thread for this
  // context executes its lists in FIFO order — the way real VC4 is driven
  // by control lists rather than immediate-mode calls.
  // Flush() submits the open list, Finish() joins, and every value-
  // returning call (GetError, ReadPixels, GetGraphicsResetStatus, Gen*,
  // Get*, ...) is an implicit sync point, so recorded execution is
  // byte-identical to immediate mode in framebuffer bytes, op counts, GL
  // errors and trap/abort semantics (see README "Command stream"). Resolved
  // with the same on-by-default rule as `vertex_batch`; the knob exists for
  // A/B benchmarking and CI's MGPU_ASYNC=0 leg.
  int async_submit = -1;
  // Effective fragment-batch fill width (lanes per batched shader
  // dispatch), clamped to [1, kFragBatchWidth]. Swept 8/16/32 by
  // bench_fig1_pipeline; the default matches the pre-SIMD batch width.
  int fragment_batch_width = 16;
  // Per-draw total-work budget in modeled ALU ops (vertex + fragment,
  // AluModel::CountAlu accounting): a watchdog in the spirit of a kernel
  // GPU-hang timeout. 0 (default) disables it; a draw that exceeds the
  // budget is aborted transactionally (framebuffer, depth and counters as
  // if never issued) with GL_OUT_OF_MEMORY and a guilty reset status. This
  // and Context::SetDrawBudget are the budget's only inputs (compute users
  // reach the latter through compute::Device::gl()). The trip decision is
  // deterministic across engines and worker counts because the completed
  // draw's op total is engine- and thread-invariant.
  std::uint64_t draw_budget = 0;
  std::string renderer_name = "mgpu software GLES2 (VideoCore IV model)";
};

// Classification of a draw abort, driving the GL error and reset status a
// failed draw reports (see Context::GetGraphicsResetStatus):
//   kTrap     — the shader itself trapped (loop budget, call depth,
//               explicit trap): guilty reset + GL_INVALID_OPERATION.
//   kBudget   — the draw tripped the ContextConfig::draw_budget watchdog:
//               guilty reset + GL_OUT_OF_MEMORY.
//   kResource — the implementation failed under the draw (allocation or
//               worker-pool failure): innocent reset + GL_OUT_OF_MEMORY.
enum class DrawErrorKind { kNone, kTrap, kBudget, kResource };

// Per-worker undo log making draws transactional: every framebuffer byte
// and depth float a worker overwrites is recorded before mutation, and an
// aborted draw replays the entries in reverse to restore the exact
// pre-draw image. Workers own disjoint tiles or row bands, so replay order
// across workers is irrelevant; within a worker, reverse order makes repeated
// writes to one pixel unwind correctly. Vectors keep their capacity across
// draws (cleared, not freed), so the trap-free hot path pays one bounds
// check and a push_back per written pixel.
struct UndoJournal {
  struct ColorEntry {
    std::uint32_t offset;                 // byte offset of the RGBA8 pixel
    std::array<std::uint8_t, 4> old_rgba;
  };
  struct DepthEntry {
    std::uint32_t index;  // float index into the depth plane
    float old_depth;
  };
  std::vector<ColorEntry> color;
  std::vector<DepthEntry> depth;
  void Clear() {
    color.clear();
    depth.clear();
  }
};

// Texture-cache model: 4 KB, 4-way set associative, 32-byte lines (8 RGBA8
// texels), round-robin replacement. Reset per *tile*, the way a VC4 QPU's
// TMU cache session is effectively private to the tile it shades; with
// per-tile resets the total miss count is a sum of independent per-tile
// counts, identical for any tile execution order and worker count. (A tile
// split into row bands is replayed as one session from the bands' logs,
// so the split is invisible here too.) Misses
// feed the ALU counters and are priced by the timing model (sequential
// GPGPU streams mostly hit, strided matrix walks miss — the paper's
// sum/sgemm asymmetry).
struct TmuCacheModel {
  static constexpr int kSets = 32;
  static constexpr int kWays = 4;
  std::array<std::uint64_t, kSets * kWays> lines{};
  std::array<std::uint8_t, kSets> rr{};

  TmuCacheModel() { Reset(); }
  void Reset() {
    lines.fill(~0ull);
    rr.fill(0);
  }
  // Touches `line`, installing it on a miss. Returns true on a miss.
  bool Access(std::uint64_t line) {
    // Multiplicative hash so distinct textures' streams spread over sets.
    const std::uint64_t h = line * 0x9E3779B97F4A7C15ull;
    const std::size_t set = static_cast<std::size_t>(
        (h >> 32) % static_cast<std::uint64_t>(kSets));
    for (int way = 0; way < kWays; ++way) {
      if (lines[set * kWays + static_cast<std::size_t>(way)] == line) {
        return false;
      }
    }
    const std::uint8_t victim = rr[set];
    lines[set * kWays + victim] = line;
    rr[set] = static_cast<std::uint8_t>((victim + 1) % kWays);
    return true;
  }
};

// Texture-cache accesses of one row-band work item (see
// Context::DrawGeneric), kept for the canonical per-tile replay at join.
// Entries are compact — texture unit in the top 3 bits, cache line
// (texel index >> 3) in the low 29 — in emission order, segmented by
// primitive: segments[i] covers entries [segments[i].begin,
// segments[i].end) of primitive segments[i].prim. Vectors keep their
// capacity across draws.
struct BandTmuLog {
  static constexpr int kLineBits = 29;
  struct Segment {
    std::uint32_t prim;
    std::uint32_t begin;
    std::uint32_t end;
  };
  std::vector<std::uint32_t> entries;
  std::vector<Segment> segments;
  std::size_t replayed = 0;  // segments consumed by the join's replay

  void Clear() {
    entries.clear();
    segments.clear();
    replayed = 0;
  }
  void Append(std::uint32_t prim, std::uint32_t entry) {
    const auto at = static_cast<std::uint32_t>(entries.size());
    if (segments.empty() || segments.back().prim != prim) {
      segments.push_back({prim, at, at});
    }
    entries.push_back(entry);
    segments.back().end = at + 1;
  }
  [[nodiscard]] static std::uint32_t Entry(int unit, long long texel) {
    return (static_cast<std::uint32_t>(unit) << kLineBits) |
           static_cast<std::uint32_t>(texel >> 3);
  }
};

// Caches the per-worker shading state of the tiled fragment pipeline so a
// draw's setup cost is amortized across draws instead of paid per draw.
// Building a worker slot is expensive — a VmExec clone (full global-store
// copy with allocation), an AluModel fork, a TMU-cache model, plus the
// per-draw plumbing that used to be rebuilt on every draw and now lives
// here: the FragmentSink / batch-flush closures, the cached gl_* slot
// pointers, the varying scatter tables, the lane-batch scratch and the
// deferred TMU access log, and the engine's installed texture callback.
// None of it depends on anything but the program, the engine flavor and
// the worker count, so steady-state draws allocate nothing at all.
//
// Entries are keyed by (program id, configured thread count); the serial
// path (1 effective worker) caches under thread count 1 with a slot that
// *borrows* the program's own engine, the context ALU model and the
// context-owned serial TMU cache instead of owning clones. Per draw only
// the uniforms/globals are re-synced into used parallel slots and the
// counter shards reset. Invalidation: relinking or deleting a program
// drops its entries (the cached clones pin the old bytecode); switching
// ExecEngine or shader_threads drops everything. Entries beyond the
// configured capacity are evicted least-recently-drawn first, so holding
// hundreds of linked programs cannot grow the cache unboundedly.
class ShadeStateCache {
 public:
  // One shading worker's private state and cached draw plumbing. Pointees
  // are stable for the life of the entry (the closures and the engine's
  // texture callback capture them by address), so WorkerStates are held by
  // unique_ptr — lazy slot growth must not move them.
  struct WorkerState {
    // Owned state — parallel worker slots only. The serial slot borrows
    // the program's engine, the context's ALU model and serial TMU cache.
    std::unique_ptr<glsl::VmExec> engine_owned;
    std::unique_ptr<glsl::AluModel> alu_owned;
    std::unique_ptr<TmuCacheModel> tmu_owned;
    // Views the draw loop uses (into the owned state or the borrowed one).
    glsl::ShaderEngine* engine = nullptr;
    glsl::VmExec* vm = nullptr;  // non-null when `engine` is a bytecode VM
    glsl::AluModel* alu = nullptr;
    TmuCacheModel* tmu = nullptr;

    // Cached draw plumbing. `sink` shades one fragment per call (scalar
    // engines); `flush` shades and drains `batch` (batched engine).
    FragmentSink sink;
    BatchFlushFn flush;
    FragmentBatch batch;
    // Deferred TMU accounting for the batched engine: texture-cache lines
    // touched by each lane, replayed in lane order after the batch so the
    // modeled miss count reproduces the scalar engine's fragment-
    // sequential access order exactly.
    std::array<std::vector<std::uint64_t>, kFragBatchWidth> tmu_log;
    // Row-band items: the TMU log of the band being shaded (nullptr while
    // shading whole tiles, where lines go straight into `tmu`), the
    // primitive being rasterized, and — batched engine — the primitive of
    // each pending batch lane below `lanes_tagged`, so the flush files
    // every lane's lines under its own primitive. While band_log is set,
    // tmu_log holds BandTmuLog::Entry values instead of full lines.
    BandTmuLog* band_log = nullptr;
    std::uint32_t band_prim = 0;
    int lanes_tagged = 0;
    std::array<std::uint32_t, kFragBatchWidth> lane_prim{};
    std::string error;  // first shader runtime error this draw, if any
    // Classification of `error` for the robustness API.
    DrawErrorKind error_kind = DrawErrorKind::kNone;
    // Transactional-abort undo log for the framebuffer writes this worker
    // performed during the current draw.
    UndoJournal journal;
    // Journal the cached sink/flush closures actually write through:
    // &journal when the current draw can abort mid-write (trap-capable
    // fragment shader, armed watchdog, armed fault site), nullptr when it
    // provably cannot — refreshed per draw, so the trap-free hot path
    // pays nothing for transactional aborts.
    UndoJournal* active_journal = nullptr;
    // ALU ops this worker's counter shard held the last time it reported
    // to the draw's watchdog accumulator (delta reporting keeps the
    // budget check O(1) per fragment / per batch flush).
    std::uint64_t budget_reported = 0;

    // Uninstalls the texture callback from a *borrowed* engine: the serial
    // slot installs a callback capturing this WorkerState on the program's
    // long-lived engine, and LRU eviction or a cache clear must not leave
    // that engine holding a reference to freed state. (Owned engines die
    // with the slot; invalidation always runs before the program itself is
    // destroyed, so the borrowed engine is still alive here.)
    ~WorkerState();
  };
  struct Entry {
    std::vector<std::unique_ptr<WorkerState>> workers;
    std::uint64_t last_use = 0;
  };

  // Cached vertex-stage lane plumbing for the batched vertex path: plane
  // views (glsl::BatchDst) into the program's own vertex VM — attribute
  // gather destinations, and gl_Position / gl_PointSize / varying scatter
  // sources. The vertex stage runs on the calling thread against the
  // program's long-lived vvm, so entries depend only on the linked program
  // and are keyed by program id alone; the same invalidation points as the
  // worker entries (relink, delete, engine/thread switch) keep the cached
  // views alive exactly as long as the planes they aim into.
  struct VertexState {
    struct AttribLanes {
      glsl::BatchDst dst;
      int location = -1;  // index into the context's attribute bindings
      int cells = 0;      // components the shader-side declaration holds
    };
    struct VaryingSrc {
      glsl::BatchDst src;
      int cells = 0;
      int offset = 0;  // cell offset into RasterVertex::varyings
    };
    // Per-draw resolved attribute sources — the batched FetchAttribute's
    // hoisted base/stride/type state. Sized alongside `attribs` and fully
    // rewritten each draw, so steady-state draws allocate nothing here.
    struct AttribSource {
      const std::uint8_t* base = nullptr;  // null => constant fill
      int stride = 0;
      GLenum type = GL_FLOAT;
      bool normalized = false;
      int size = 0;
      const float* constant = nullptr;
      // Bytes readable from `base` (VBO sources: Buffer::data.size() minus
      // the attrib offset; client arrays: SIZE_MAX, unbounded by the GL
      // contract). The gather validates stride*last_vertex + tail against
      // this before touching memory.
      std::size_t bound = SIZE_MAX;
      int tail = 0;  // bytes of one fetched element: size * elem_size
    };
    std::vector<AttribLanes> attribs;
    std::vector<AttribSource> sources;
    std::vector<VaryingSrc> varyings;
    // Builtin scatter sources; a null base when the stage never declares
    // the builtin. A slot without a per-lane plane (never written) resolves
    // to the shared store with lane stride 0 — the same value the scalar
    // loop would read.
    glsl::BatchDst position;
    glsl::BatchDst point_size;
    std::uint64_t last_use = 0;
  };

  // Returns the entry for (program, threads), or nullptr on a miss. Hit /
  // miss tallies feed the cache-behaviour tests.
  [[nodiscard]] Entry* Find(GLuint program, int threads);
  Entry& Insert(GLuint program, int threads);
  // Vertex-state lookup, same LRU cap. Deliberately outside the hit/miss
  // tallies: those count worker-entry behaviour for the cache tests.
  [[nodiscard]] VertexState* FindVertex(GLuint program);
  VertexState& InsertVertex(GLuint program);
  void InvalidateProgram(GLuint program);
  void Clear() {
    entries_.clear();
    vertex_entries_.clear();
  }

  // LRU capacity: inserting beyond it evicts the least-recently-used
  // entry. At least 1.
  void SetCapacity(std::size_t cap) { capacity_ = cap < 1 ? 1 : cap; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  [[nodiscard]] std::size_t entry_count() const { return entries_.size(); }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

 private:
  std::map<std::pair<GLuint, int>, Entry> entries_;
  std::map<GLuint, VertexState> vertex_entries_;
  std::size_t capacity_ = 64;
  std::uint64_t use_tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

class Context {
 public:
  // `alu` is the arithmetic model shaders execute on (precision + op
  // counting); it must outlive the context. Pass nullptr for IEEE-exact.
  explicit Context(const ContextConfig& config = ContextConfig{},
                   glsl::AluModel* alu = nullptr);
  ~Context();

  // --- errors ---
  GLenum GetError();

  // --- capabilities / state ---
  void Enable(GLenum cap);
  void Disable(GLenum cap);
  void Viewport(GLint x, GLint y, GLsizei w, GLsizei h);
  void Scissor(GLint x, GLint y, GLsizei w, GLsizei h);
  void ClearColor(GLfloat r, GLfloat g, GLfloat b, GLfloat a);
  void Clear(GLbitfield mask);
  void BlendFunc(GLenum src, GLenum dst);
  void DepthFunc(GLenum func);
  void DepthMask(GLboolean flag);
  void ColorMask(GLboolean r, GLboolean g, GLboolean b, GLboolean a);
  void CullFace(GLenum mode);
  void FrontFace(GLenum dir);
  void PixelStorei(GLenum pname, GLint value);
  void GetIntegerv(GLenum pname, GLint* params);
  [[nodiscard]] const char* GetString(GLenum name);
  void GetShaderPrecisionFormat(GLenum shader_type, GLenum precision_type,
                                GLint* range, GLint* precision);
  // Flush submits the open command list to the device (async mode); Finish
  // additionally joins — on return every recorded command has executed.
  // Both are no-ops in immediate mode, where nothing is ever deferred.
  void Finish();
  void Flush();

  // --- shaders ---
  GLuint CreateShader(GLenum type);
  void ShaderSource(GLuint shader, const std::string& source);
  void CompileShader(GLuint shader);
  void GetShaderiv(GLuint shader, GLenum pname, GLint* params);
  [[nodiscard]] std::string GetShaderInfoLog(GLuint shader);
  void DeleteShader(GLuint shader);

  // --- programs ---
  GLuint CreateProgram();
  void AttachShader(GLuint program, GLuint shader);
  void BindAttribLocation(GLuint program, GLuint index,
                          const std::string& name);
  void LinkProgram(GLuint program);
  void GetProgramiv(GLuint program, GLenum pname, GLint* params);
  [[nodiscard]] std::string GetProgramInfoLog(GLuint program);
  void UseProgram(GLuint program);
  void DeleteProgram(GLuint program);
  GLint GetUniformLocation(GLuint program, const std::string& name);
  GLint GetAttribLocation(GLuint program, const std::string& name);

  // --- uniforms (apply to the current program) ---
  void Uniform1f(GLint loc, GLfloat x);
  void Uniform2f(GLint loc, GLfloat x, GLfloat y);
  void Uniform3f(GLint loc, GLfloat x, GLfloat y, GLfloat z);
  void Uniform4f(GLint loc, GLfloat x, GLfloat y, GLfloat z, GLfloat w);
  void Uniform1i(GLint loc, GLint x);
  void Uniform1fv(GLint loc, GLsizei count, const GLfloat* v);
  void Uniform2fv(GLint loc, GLsizei count, const GLfloat* v);
  void Uniform4fv(GLint loc, GLsizei count, const GLfloat* v);
  void UniformMatrix4fv(GLint loc, GLsizei count, GLboolean transpose,
                        const GLfloat* v);

  // --- vertex attributes ---
  void EnableVertexAttribArray(GLuint index);
  void DisableVertexAttribArray(GLuint index);
  void VertexAttribPointer(GLuint index, GLint size, GLenum type,
                           GLboolean normalized, GLsizei stride,
                           const void* pointer);
  void VertexAttrib4f(GLuint index, GLfloat x, GLfloat y, GLfloat z,
                      GLfloat w);

  // --- buffers ---
  void GenBuffers(GLsizei n, GLuint* ids);
  void BindBuffer(GLenum target, GLuint id);
  void BufferData(GLenum target, GLsizeiptr size, const void* data,
                  GLenum usage);
  void BufferSubData(GLenum target, GLintptr offset, GLsizeiptr size,
                     const void* data);
  void DeleteBuffers(GLsizei n, const GLuint* ids);

  // --- textures ---
  void GenTextures(GLsizei n, GLuint* ids);
  void ActiveTexture(GLenum unit);
  void BindTexture(GLenum target, GLuint id);
  void TexImage2D(GLenum target, GLint level, GLint internal_format,
                  GLsizei width, GLsizei height, GLint border, GLenum format,
                  GLenum type, const void* data);
  void TexSubImage2D(GLenum target, GLint level, GLint xoffset, GLint yoffset,
                     GLsizei width, GLsizei height, GLenum format, GLenum type,
                     const void* data);
  void TexParameteri(GLenum target, GLenum pname, GLint param);
  void DeleteTextures(GLsizei n, const GLuint* ids);

  // --- renderbuffers / framebuffers ---
  void GenRenderbuffers(GLsizei n, GLuint* ids);
  void BindRenderbuffer(GLenum target, GLuint id);
  void RenderbufferStorage(GLenum target, GLenum internal_format, GLsizei w,
                           GLsizei h);
  void DeleteRenderbuffers(GLsizei n, const GLuint* ids);
  void GenFramebuffers(GLsizei n, GLuint* ids);
  void BindFramebuffer(GLenum target, GLuint id);
  void FramebufferTexture2D(GLenum target, GLenum attachment,
                            GLenum textarget, GLuint texture, GLint level);
  void FramebufferRenderbuffer(GLenum target, GLenum attachment,
                               GLenum rb_target, GLuint rb);
  GLenum CheckFramebufferStatus(GLenum target);
  void DeleteFramebuffers(GLsizei n, const GLuint* ids);

  // --- drawing / readback ---
  void DrawArrays(GLenum mode, GLint first, GLsizei count);
  void DrawElements(GLenum mode, GLsizei count, GLenum type,
                    const void* indices);
  void ReadPixels(GLint x, GLint y, GLsizei w, GLsizei h, GLenum format,
                  GLenum type, void* pixels);

  // --- introspection for tests and the timing model ---
  // All of these observe state the deferred executor mutates, so in async
  // mode each is an implicit sync point (defined in context.cc).
  [[nodiscard]] glsl::AluModel& alu();
  [[nodiscard]] const ContextConfig& config() const { return config_; }
  // Execution-engine switch (applies to subsequent draws; programs carry
  // both engines, compiled at link time). Drops all cached shading state:
  // cached worker slots embed engine-specific clones.
  [[nodiscard]] ExecEngine exec_engine() const { return config_.exec_engine; }
  void SetExecEngine(ExecEngine engine);
  // Fragment-shading worker count (applies to subsequent draws; see
  // ContextConfig::shader_threads for the semantics). Drops all cached
  // shading state: entries are sized to the configured count.
  [[nodiscard]] int shader_threads() const { return config_.shader_threads; }
  void SetShaderThreads(int n);
  // Cache of per-worker shading state, exposed for the cache-behaviour and
  // invalidation tests.
  [[nodiscard]] const ShadeStateCache& shade_state_cache();
  // Draws whose tiles were split into row-band work items (see
  // ContextConfig::shader_threads), counted since construction.
  [[nodiscard]] std::uint64_t band_split_draws();
  // Last shader runtime failure during a draw ("" when none): loop budget
  // exceeded etc.; a real GPU would hang or reset. The failed draw itself
  // was aborted transactionally — the framebuffer, depth buffer and op
  // counters hold exactly the pre-draw state.
  [[nodiscard]] const std::string& last_draw_error();
  // GL_EXT_robustness-style reset status: GL_NO_ERROR when no draw has
  // been aborted since the last query, else which side was at fault
  // (GL_GUILTY_CONTEXT_RESET for shader traps and watchdog trips,
  // GL_INNOCENT_CONTEXT_RESET for implementation resource failures).
  // Observe-and-clear, like GetError. The context itself remains fully
  // usable — subsequent draws behave as if the aborted one was never
  // issued, which is what the fault-injection tests assert.
  GLenum GetGraphicsResetStatus();
  // The per-draw watchdog budget (ContextConfig::draw_budget until
  // SetDrawBudget changes it; 0 = off). Settable at any time; applies to
  // subsequent draws.
  [[nodiscard]] std::uint64_t draw_budget() const { return draw_budget_; }
  void SetDrawBudget(std::uint64_t ops);
  // Whether batched-engine draws run the lane-batched vertex stage
  // (ContextConfig::vertex_batch resolved against MGPU_VERTEX_BATCH at
  // construction). Exposed for the A/B benches and the knob tests.
  [[nodiscard]] bool vertex_batch_enabled() const {
    return vertex_batch_enabled_;
  }
  // Whether this context records into the async command stream
  // (ContextConfig::async_submit resolved against MGPU_ASYNC at
  // construction). Exposed for the knob tests and the A/B benches.
  [[nodiscard]] bool async_submit_enabled() const {
    return record_ != nullptr;
  }
  // Record / submit tallies of the command stream (all zero in
  // immediate mode); see cmd::Stats in cmdstream.h. Sync point: the
  // executed-list count is final when it returns.
  [[nodiscard]] cmd::Stats command_stream_stats();
  [[nodiscard]] Texture* GetTextureObject(GLuint id);

 private:
  struct TextureUnit {
    GLuint bound_2d = 0;
  };
  struct AttribState {
    bool enabled = false;
    GLint size = 4;
    GLenum type = GL_FLOAT;
    GLboolean normalized = GL_FALSE;
    GLsizei stride = 0;
    const void* pointer = nullptr;
    GLuint buffer = 0;
    std::array<float, 4> constant{0.0f, 0.0f, 0.0f, 1.0f};
  };
  struct RenderTarget {
    // Exactly one of these is non-null for a complete color attachment.
    std::vector<std::uint8_t>* color = nullptr;  // RGBA8
    std::vector<float>* depth = nullptr;
    int width = 0;
    int height = 0;
  };

  // The recording queue captures calls into closures that re-enter the
  // public API on the device thread (where recording is suppressed, so the
  // original bodies run unchanged — byte-identity by construction), and
  // replays draw-time client-array snapshots through ReplayRecordedDraw.
  friend class cmd::CommandQueue;
  // Implicit sync point: flushes the open command list, joins the device,
  // and latches any failed-submit error (GL_OUT_OF_MEMORY + innocent
  // reset) the client has not yet observed. No-op in immediate mode and on
  // the device thread.
  void Sync();
  // Executes a recorded draw whose client-side vertex arrays (and client
  // index array, for DrawElements) were snapshotted at record time: the
  // snapshot copies are swapped into the attribute bindings around a plain
  // DrawArrays/DrawElements call, which runs inline on the device thread.
  void ReplayRecordedDraw(
      GLenum mode, GLint first, GLsizei count, bool elements,
      GLenum index_type, std::shared_ptr<std::vector<std::uint8_t>> indices,
      std::shared_ptr<std::vector<cmd::AttribCopy>> copies);

  // True when this call should be recorded instead of executed: async mode
  // is on and the caller is a client thread (the device thread re-entering
  // the public API during replay must run the original bodies).
  [[nodiscard]] bool Recording() const;
  // Texture lookup without the sync prologue of the public
  // GetTextureObject: used by the draw-time texture callbacks, which run on
  // pool workers while the device thread owns the draw — syncing there
  // would self-deadlock.
  [[nodiscard]] Texture* LookupTexture(GLuint id);

  void SetError(GLenum e);
  [[nodiscard]] ShaderObject* GetShader(GLuint id);
  [[nodiscard]] ProgramObject* GetProgram(GLuint id);
  [[nodiscard]] BufferObject* GetBuffer(GLuint id);
  [[nodiscard]] RenderbufferObject* GetRenderbuffer(GLuint id);
  [[nodiscard]] FramebufferObject* GetFramebuffer(GLuint id);
  bool ResolveTarget(RenderTarget* out);  // false => incomplete framebuffer
  void SetUniformValue(const UniformInfo& u, int element, int comps,
                       const float* fdata, const GLint* idata, int count,
                       bool is_matrix);
  bool FetchAttribute(const AttribState& a, GLint vertex,
                      std::array<float, 4>* out) const;
  // Lane-batched vertex stage (batched engines with vertex_batch on):
  // gathers attributes for chunks of up to kVmLanes vertices straight into
  // the vertex VM's lane-major planes, executes one RunBatch pass per chunk,
  // and scatters clip position / point size / varyings back into `verts`
  // in lane order. Returns false after fully reporting a draw abort
  // (attribute fetch failure, watchdog trip, shader trap) with the same
  // observable state as the scalar loop — the caller just returns.
  bool ShadeVerticesBatched(ProgramObject* prog, GLsizei count,
                            const std::function<GLuint(GLsizei)>& index_at,
                            std::vector<RasterVertex>& verts,
                            const glsl::OpCounts& draw_start_counts);
  // Scalar per-vertex reference loop (the oracle engines, or vertex_batch
  // off): one FetchAttribute + Run() round trip per vertex. Same
  // false-means-aborted contract as ShadeVerticesBatched.
  bool ShadeVerticesScalar(ProgramObject* prog, bool use_vm, GLsizei count,
                           const std::function<GLuint(GLsizei)>& index_at,
                           std::vector<RasterVertex>& verts,
                           const glsl::OpCounts& draw_start_counts);
  void DrawGeneric(GLenum mode, GLsizei count,
                   const std::function<GLuint(GLsizei)>& index_at);
  // Writes one shaded fragment (scissor, depth test, blend, masks). Every
  // framebuffer byte / depth float about to be overwritten is recorded in
  // `journal` first (non-null during draws) so an abort can undo it.
  void WritePixel(RenderTarget& rt, int x, int y, float depth,
                  const std::array<float, 4>& color, bool depth_valid,
                  UndoJournal* journal);
  // Reports the ALU ops `w` accrued since its last report to the shared
  // per-draw accumulator and throws a ShaderRuntimeError (kind kBudget) if
  // the draw's total exceeds draw_budget_. Deterministic trip-vs-not: the
  // total is monotone toward an engine- and thread-invariant final sum.
  void CheckDrawBudget(ShadeStateCache::WorkerState* w);
  // Texture-fetch callback routing misses through the worker's cache model
  // and counter shard — or, on a row-band item, into its band log; one per
  // shading worker (thread-safe: texture contents are immutable during a
  // draw, each worker owns its cache, counters and current band log).
  [[nodiscard]] glsl::TextureFn MakeTextureFn(
      ShadeStateCache::WorkerState* w);
  // Lane-aware variant for the batched engine: sampling happens
  // immediately (contents are immutable during a draw), but the touched
  // cache line is logged to the executing lane's entry of w->tmu_log; the
  // flush replays the logs in lane order so miss counts match the scalar
  // engine's fragment-sequential access order byte for byte.
  [[nodiscard]] glsl::TextureFn MakeBatchTextureFn(
      ShadeStateCache::WorkerState* w);
  // Builds a worker slot's cached draw plumbing — texture callback,
  // fragment sink (scalar engines) or batch flush (batched engine), with
  // the program's gl_* slot and varying destinations resolved once.
  void BuildWorkerPlumbing(ShadeStateCache::WorkerState& w,
                           ProgramObject* prog);
  // Row-band gate and planner for a draw whose non-empty tiles (`work`)
  // number fewer than `threads`: true when the fragment program's static
  // cost bound times `bounds_area` (the primitives' summed bounding-box
  // area) exceeds kBandSplitMinWork and every primitive emits rows
  // monotonically; band_items_ then holds about kBandItemsPerWorker *
  // threads row bands and band_row_order_ each primitive's row order.
  bool PlanRowBands(const ProgramObject& prog, int threads,
                    const std::vector<std::uint32_t>& work,
                    std::uint64_t bounds_area,
                    const std::vector<TilePrim>& prims,
                    const std::vector<RasterVertex>& verts,
                    const RasterState& rs);
  // Replays the band items' TMU logs per tile in the serial path's
  // emission order — primitive by primitive, bands in the primitive's row
  // order — through one fresh cache model per tile; returns the misses.
  [[nodiscard]] std::uint64_t ReplayBandTmu();

  ContextConfig config_;
  // The async recording queue (ContextConfig::async_submit resolved once at
  // construction): non-null = calls are recorded and executed by the
  // process-wide submit device; null = immediate mode. ~Context joins and
  // unregisters it before any other member dies.
  std::unique_ptr<cmd::CommandQueue> record_;
  // ContextConfig::simd resolved once at construction (env override applied,
  // clamped to the host's detected tier); stamped onto every linked
  // program's VM engines.
  glsl::simd::Level simd_level_ = glsl::simd::Level::kScalar;
  // ContextConfig::vertex_batch resolved once at construction (env
  // override applied): whether batched-engine draws run the lane-batched
  // vertex stage. False = every engine keeps the scalar vertex loop.
  bool vertex_batch_enabled_ = true;
  glsl::ExactAlu default_alu_;
  glsl::AluModel* alu_;
  GLenum error_ = GL_NO_ERROR;
  std::string last_draw_error_;
  // Robustness state: reset status of the last aborted draw (cleared by
  // GetGraphicsResetStatus) and the resolved watchdog budget.
  GLenum reset_status_ = GL_NO_ERROR;
  std::uint64_t draw_budget_ = 0;
  // Watchdog accumulator: ALU ops consumed by the draw in flight, summed
  // across worker shards via relaxed fetch_add (monotone, so the trip
  // decision is deterministic even though intermediate interleavings vary).
  std::atomic<std::uint64_t> draw_alu_used_{0};

  GLuint next_id_ = 1;
  std::map<GLuint, std::unique_ptr<ShaderObject>> shaders_;
  std::map<GLuint, std::unique_ptr<ProgramObject>> programs_;
  std::map<GLuint, std::unique_ptr<BufferObject>> buffers_;
  std::map<GLuint, std::unique_ptr<Texture>> textures_;
  std::map<GLuint, std::unique_ptr<RenderbufferObject>> renderbuffers_;
  std::map<GLuint, std::unique_ptr<FramebufferObject>> framebuffers_;

  // Worker pool for the tiled fragment pipeline, created lazily on the
  // first parallel draw and resized when shader_threads changes.
  std::unique_ptr<common::ThreadPool> pool_;
  // TMU cache used by the serial shading path. Context-owned (not
  // draw-local) so the texture callback installed on the long-lived
  // program engines never refers into a finished draw's stack frame.
  TmuCacheModel serial_tmu_cache_;
  // Cached per-worker shading state (serial and parallel draws); see
  // ShadeStateCache.
  ShadeStateCache shade_cache_;
  // Per-draw state the cached sink/flush closures reach through stable
  // addresses: the resolved render target and the first-failure latch.
  RenderTarget draw_rt_;
  std::atomic<bool> draw_failed_{false};
  // Draw-loop scratch, context-owned so steady-state draws recycle the
  // allocations: the sparse tile binner, the post-transform vertex array
  // (inner varying vectors keep their capacity too), the assembled
  // primitive list, and the non-empty-tile work list.
  TileBinner binner_;
  std::vector<RasterVertex> scratch_verts_;
  std::vector<TilePrim> scratch_prims_;
  std::vector<std::uint32_t> scratch_work_;
  // Row-band scratch, recycled the same way: each primitive's row order
  // (see TriangleRowOrder), the band work items of the draw in flight, and
  // one TMU log per item.
  struct BandItem {
    std::uint32_t tile;
    int y0;
    int y1;
  };
  std::vector<std::int8_t> band_row_order_;
  std::vector<BandItem> band_items_;
  std::vector<BandTmuLog> band_logs_;
  std::uint64_t band_split_draws_ = 0;

  GLuint current_program_ = 0;
  GLuint array_buffer_ = 0;
  GLuint element_array_buffer_ = 0;
  GLuint bound_framebuffer_ = 0;
  GLuint bound_renderbuffer_ = 0;
  int active_unit_ = 0;
  std::array<TextureUnit, 8> units_{};
  std::vector<AttribState> attribs_;

  // Default framebuffer storage (bottom-up rows, GL convention).
  std::vector<std::uint8_t> fb_color_;
  std::vector<float> fb_depth_;

  // Fixed-function state.
  int vp_x_ = 0, vp_y_ = 0, vp_w_ = 0, vp_h_ = 0;
  int sc_x_ = 0, sc_y_ = 0, sc_w_ = 0, sc_h_ = 0;
  bool scissor_enabled_ = false;
  bool depth_enabled_ = false;
  bool blend_enabled_ = false;
  bool cull_enabled_ = false;
  GLenum depth_func_ = GL_LESS;
  bool depth_write_ = true;
  GLenum blend_src_ = GL_ONE;
  GLenum blend_dst_ = GL_ZERO;
  GLenum cull_face_ = GL_BACK;
  GLenum front_face_ = GL_CCW;
  std::array<bool, 4> color_mask_{true, true, true, true};
  std::array<float, 4> clear_color_{0.0f, 0.0f, 0.0f, 0.0f};
  GLint unpack_alignment_ = 4;
  GLint pack_alignment_ = 4;
};

}  // namespace mgpu::gles2

#endif  // MGPU_GLES2_CONTEXT_H_
