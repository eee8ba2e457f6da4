#include "gles2/context.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>

#include "common/fault.h"
#include "common/strings.h"
#include "common/threadpool.h"
#include "gles2/cmdstream.h"
#include "gles2/raster.h"
#include "gles2/tiler.h"
#include "glsl/compile.h"

namespace mgpu::gles2 {

using glsl::BaseType;
using glsl::Value;

// The raster layer's batch width and the VM's lane count must agree: the
// flush path hands a FragmentBatch's lanes straight to VmExec::RunBatch.
static_assert(kFragBatchWidth == glsl::kVmLanes,
              "fragment batch width must match the VM lane width");

namespace {
// Watchdog trip message: the budget is a per-draw total, so one string
// serves the vertex and fragment stages.
constexpr const char kBudgetMsg[] =
    "draw exceeded the per-draw ALU-op watchdog budget";

// Row-band split gate (Context::PlanRowBands): a draw with fewer non-empty
// tiles than workers splits them into row bands only when its estimated
// fragment work — the fragment program's static cost bound in VM
// instructions times its primitives' summed bounding-box area (clamped to
// the target) — exceeds this. Set by measurement on a 4-vCPU x86-64 host
// (README "Row bands"): a split of a freshly linked program (pool wake-up,
// worker clones, TMU replay) breaks even at an estimate of about
// 40K-100K, or ~0.25 ms of serial shading, so the gate sits 10-25x above
// that. The sgemm kernels (n = 32: 7.5M and up) clear it by 7x and more;
// the loop-free mesh and textured-quad draws of a 64x64 tenant frame
// (under 50K even for a full-target quad) stay 20x below it.
constexpr std::uint64_t kBandSplitMinWork = std::uint64_t{1} << 20;
// Band items per worker: enough slack for the atomic claim loop to even
// out rows of unequal cost.
constexpr int kBandItemsPerWorker = 2;

// Clamped pixel bounds of an assembled primitive; false when it can produce
// no fragments.
bool PrimBounds(const TilePrim& p, const std::vector<RasterVertex>& verts,
                const RasterState& rs, PixelRect* r) {
  switch (p.kind) {
    case TilePrim::Kind::kTriangle:
      return TriangleBounds(verts[p.v0], verts[p.v1], verts[p.v2], rs, r);
    case TilePrim::Kind::kPoint:
      return PointBounds(verts[p.v0], rs, r);
    case TilePrim::Kind::kLine:
      return LineBounds(verts[p.v0], verts[p.v1], rs, r);
  }
  return false;
}

// The rule of the on-by-default ContextConfig knobs (vertex_batch,
// async_submit): an explicit 0 or 1 wins; -1 = auto, which honors the
// environment variable `env` when set (0 disables) and is otherwise on.
bool ResolveOnByDefault(int knob, const char* env) {
  if (knob >= 0) return knob != 0;
  const char* value = std::getenv(env);
  return value == nullptr || std::strtol(value, nullptr, 10) != 0;
}

// Once `cache` holds more than `capacity` entries, erases the
// least-recently-drawn one other than `keep` (the entry just touched).
// True when it evicted.
template <class Map>
bool EvictLru(Map& cache, const typename Map::mapped_type& keep,
              std::size_t capacity) {
  if (cache.size() <= capacity) return false;
  auto victim = cache.end();
  for (auto it = cache.begin(); it != cache.end(); ++it) {
    if (&it->second == &keep) continue;
    if (victim == cache.end() ||
        it->second.last_use < victim->second.last_use) {
      victim = it;
    }
  }
  if (victim == cache.end()) return false;
  cache.erase(victim);
  return true;
}

// kCompiled is a retired alias of kBatchedVm (see ExecEngine).
ExecEngine Canonical(ExecEngine engine) {
  return engine == ExecEngine::kCompiled ? ExecEngine::kBatchedVm : engine;
}
}  // namespace

ShadeStateCache::WorkerState::~WorkerState() {
  if (engine_owned == nullptr && engine != nullptr) {
    engine->SetTextureFn(glsl::TextureFn{});
  }
}

ShadeStateCache::Entry* ShadeStateCache::Find(GLuint program, int threads) {
  const auto it = entries_.find({program, threads});
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  it->second.last_use = ++use_tick_;
  return &it->second;
}

ShadeStateCache::Entry& ShadeStateCache::Insert(GLuint program, int threads) {
  Entry& e = entries_[{program, threads}];
  e.last_use = ++use_tick_;
  if (EvictLru(entries_, e, capacity_)) ++evictions_;
  return e;
}

ShadeStateCache::VertexState* ShadeStateCache::FindVertex(GLuint program) {
  const auto it = vertex_entries_.find(program);
  if (it == vertex_entries_.end()) return nullptr;
  it->second.last_use = ++use_tick_;
  return &it->second;
}

ShadeStateCache::VertexState& ShadeStateCache::InsertVertex(GLuint program) {
  VertexState& e = vertex_entries_[program];
  e.last_use = ++use_tick_;
  // Not tallied in evictions_: that counter tracks worker-entry behaviour
  // for the cache tests.
  EvictLru(vertex_entries_, e, capacity_);
  return e;
}

void ShadeStateCache::InvalidateProgram(GLuint program) {
  for (auto it = entries_.begin(); it != entries_.end();) {
    it = it->first.first == program ? entries_.erase(it) : std::next(it);
  }
  vertex_entries_.erase(program);
}

Context::Context(const ContextConfig& config, glsl::AluModel* alu)
    : config_(config), alu_(alu != nullptr ? alu : &default_alu_) {
  config_.exec_engine = Canonical(config_.exec_engine);
  simd_level_ = glsl::simd::Resolve(config_.simd);
  vertex_batch_enabled_ =
      ResolveOnByDefault(config_.vertex_batch, "MGPU_VERTEX_BATCH");
  config_.fragment_batch_width =
      std::clamp(config_.fragment_batch_width, 1, kFragBatchWidth);
  shade_cache_.SetCapacity(
      static_cast<std::size_t>(std::max(config_.shade_cache_capacity, 1)));
  draw_budget_ = config_.draw_budget;
  attribs_.resize(static_cast<std::size_t>(config_.limits.max_vertex_attribs));
  fb_color_.assign(
      static_cast<std::size_t>(config_.width) * config_.height * 4, 0);
  if (config_.has_depth) {
    fb_depth_.assign(static_cast<std::size_t>(config_.width) * config_.height,
                     1.0f);
  }
  vp_w_ = config_.width;
  vp_h_ = config_.height;
  sc_w_ = config_.width;
  sc_h_ = config_.height;
  // The command stream is created last: from here on client calls may be
  // recorded.
  if (ResolveOnByDefault(config_.async_submit, "MGPU_ASYNC")) {
    record_ = std::make_unique<cmd::CommandQueue>(this, attribs_.size());
  }
}

Context::~Context() {
  // Drain and unregister the recording queue while every other member is
  // still alive — the device thread may be mid-draw against them.
  record_.reset();
}

bool Context::Recording() const {
  return record_ != nullptr && record_->Recording();
}

void Context::Sync() {
  if (record_ == nullptr || !record_->Recording()) return;
  record_->NoteSyncPoint();
  record_->Flush();
  record_->Join();
  if (record_->TakeSubmitFailure()) {
    // A dropped list is an implementation failure the client did nothing
    // to cause: same contract as any other mid-draw resource failure.
    last_draw_error_ = "async command-list submission failed";
    reset_status_ = GL_INNOCENT_CONTEXT_RESET;
    SetError(GL_OUT_OF_MEMORY);
  }
}

void Context::Finish() { Sync(); }

void Context::Flush() {
  if (Recording()) record_->Flush();
}

cmd::Stats Context::command_stream_stats() {
  Sync();
  return record_ != nullptr ? record_->stats() : cmd::Stats{};
}

// Instrumentation / configuration accessors: each observes or rewires state
// that deferred draws read, so each is a sync point.
glsl::AluModel& Context::alu() {
  Sync();
  return *alu_;
}

void Context::SetExecEngine(ExecEngine engine) {
  Sync();
  config_.exec_engine = Canonical(engine);
  shade_cache_.Clear();
}

void Context::SetShaderThreads(int n) {
  Sync();
  config_.shader_threads = n;
  shade_cache_.Clear();
}

const ShadeStateCache& Context::shade_state_cache() {
  Sync();
  return shade_cache_;
}

std::uint64_t Context::band_split_draws() {
  Sync();
  return band_split_draws_;
}

const std::string& Context::last_draw_error() {
  Sync();
  return last_draw_error_;
}

void Context::SetDrawBudget(std::uint64_t ops) {
  Sync();
  draw_budget_ = ops;
}

void Context::ReplayRecordedDraw(
    GLenum mode, GLint first, GLsizei count, bool elements, GLenum index_type,
    std::shared_ptr<std::vector<std::uint8_t>> indices,
    std::shared_ptr<std::vector<cmd::AttribCopy>> copies) {
  // Swap the record-time client-array snapshots into the attribute
  // bindings, run the draw inline (we are on the device thread, so the
  // public entry points execute immediately), then restore. The restored
  // values are re-read here rather than captured at record time: preceding
  // recorded commands legitimately mutate the bindings.
  struct Saved {
    GLuint index;
    const void* pointer;
    GLuint buffer;
  };
  std::vector<Saved> saved;
  if (copies != nullptr) {
    saved.reserve(copies->size());
    for (const cmd::AttribCopy& c : *copies) {
      AttribState& a = attribs_[c.index];
      saved.push_back(Saved{c.index, a.pointer, a.buffer});
      a.buffer = 0;
      a.pointer = c.bytes->data();
    }
  }
  if (elements) {
    DrawElements(mode, count, index_type,
                 indices != nullptr ? indices->data() : nullptr);
  } else {
    DrawArrays(mode, first, count);
  }
  for (const Saved& s : saved) {
    attribs_[s.index].pointer = s.pointer;
    attribs_[s.index].buffer = s.buffer;
  }
}

void Context::SetError(GLenum e) {
  if (error_ == GL_NO_ERROR) error_ = e;
}

GLenum Context::GetError() {
  Sync();
  const GLenum e = error_;
  error_ = GL_NO_ERROR;
  return e;
}

GLenum Context::GetGraphicsResetStatus() {
  Sync();
  const GLenum s = reset_status_;
  reset_status_ = GL_NO_ERROR;
  return s;
}

// ---------------------------------------------------------------------------
// State
// ---------------------------------------------------------------------------

void Context::Enable(GLenum cap) {
  if (Recording()) {
    record_->Push([cap](Context& c) { c.Enable(cap); });
    return;
  }
  switch (cap) {
    case GL_SCISSOR_TEST: scissor_enabled_ = true; break;
    case GL_DEPTH_TEST: depth_enabled_ = true; break;
    case GL_BLEND: blend_enabled_ = true; break;
    case GL_CULL_FACE: cull_enabled_ = true; break;
    case GL_DITHER: break;  // accepted, no-op
    default: SetError(GL_INVALID_ENUM);
  }
}

void Context::Disable(GLenum cap) {
  if (Recording()) {
    record_->Push([cap](Context& c) { c.Disable(cap); });
    return;
  }
  switch (cap) {
    case GL_SCISSOR_TEST: scissor_enabled_ = false; break;
    case GL_DEPTH_TEST: depth_enabled_ = false; break;
    case GL_BLEND: blend_enabled_ = false; break;
    case GL_CULL_FACE: cull_enabled_ = false; break;
    case GL_DITHER: break;
    default: SetError(GL_INVALID_ENUM);
  }
}

void Context::Viewport(GLint x, GLint y, GLsizei w, GLsizei h) {
  if (Recording()) {
    record_->Push([x, y, w, h](Context& c) { c.Viewport(x, y, w, h); });
    return;
  }
  if (w < 0 || h < 0) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  vp_x_ = x; vp_y_ = y; vp_w_ = w; vp_h_ = h;
}

void Context::Scissor(GLint x, GLint y, GLsizei w, GLsizei h) {
  if (Recording()) {
    record_->Push([x, y, w, h](Context& c) { c.Scissor(x, y, w, h); });
    return;
  }
  if (w < 0 || h < 0) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  sc_x_ = x; sc_y_ = y; sc_w_ = w; sc_h_ = h;
}

void Context::ClearColor(GLfloat r, GLfloat g, GLfloat b, GLfloat a) {
  if (Recording()) {
    record_->Push([r, g, b, a](Context& c) { c.ClearColor(r, g, b, a); });
    return;
  }
  clear_color_ ={std::clamp(r, 0.0f, 1.0f), std::clamp(g, 0.0f, 1.0f),
                  std::clamp(b, 0.0f, 1.0f), std::clamp(a, 0.0f, 1.0f)};
}

void Context::BlendFunc(GLenum src, GLenum dst) {
  if (Recording()) {
    record_->Push([src, dst](Context& c) { c.BlendFunc(src, dst); });
    return;
  }
  blend_src_ = src;
  blend_dst_ = dst;
}

void Context::DepthFunc(GLenum func) {
  if (Recording()) {
    record_->Push([func](Context& c) { c.DepthFunc(func); });
    return;
  }
  if (func < GL_NEVER || func > GL_ALWAYS) {
    SetError(GL_INVALID_ENUM);
    return;
  }
  depth_func_ = func;
}

void Context::DepthMask(GLboolean flag) {
  if (Recording()) {
    record_->Push([flag](Context& c) { c.DepthMask(flag); });
    return;
  }
  depth_write_ = flag != GL_FALSE;
}

void Context::ColorMask(GLboolean r, GLboolean g, GLboolean b, GLboolean a) {
  if (Recording()) {
    record_->Push([r, g, b, a](Context& c) { c.ColorMask(r, g, b, a); });
    return;
  }
  color_mask_ = {r != GL_FALSE, g != GL_FALSE, b != GL_FALSE, a != GL_FALSE};
}

void Context::CullFace(GLenum mode) {
  if (Recording()) {
    record_->Push([mode](Context& c) { c.CullFace(mode); });
    return;
  }
  if (mode != GL_FRONT && mode != GL_BACK && mode != GL_FRONT_AND_BACK) {
    SetError(GL_INVALID_ENUM);
    return;
  }
  cull_face_ = mode;
}

void Context::FrontFace(GLenum dir) {
  if (Recording()) {
    record_->Push([dir](Context& c) { c.FrontFace(dir); });
    return;
  }
  if (dir != GL_CW && dir != GL_CCW) {
    SetError(GL_INVALID_ENUM);
    return;
  }
  front_face_ = dir;
}

void Context::PixelStorei(GLenum pname, GLint value) {
  if (Recording()) {
    record_->Push([pname, value](Context& c) { c.PixelStorei(pname, value); });
    return;
  }
  if (value != 1 && value != 2 && value != 4 && value != 8) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  if (pname == GL_UNPACK_ALIGNMENT) {
    unpack_alignment_ = value;
  } else if (pname == GL_PACK_ALIGNMENT) {
    pack_alignment_ = value;
  } else {
    SetError(GL_INVALID_ENUM);
  }
}

void Context::GetIntegerv(GLenum pname, GLint* params) {
  Sync();
  const glsl::Limits& lim = config_.limits;
  switch (pname) {
    case GL_MAX_TEXTURE_SIZE: *params = config_.max_texture_size; break;
    case GL_MAX_VERTEX_ATTRIBS: *params = lim.max_vertex_attribs; break;
    case GL_MAX_VARYING_VECTORS: *params = lim.max_varying_vectors; break;
    case GL_MAX_VERTEX_UNIFORM_VECTORS:
      *params = lim.max_vertex_uniform_vectors;
      break;
    case GL_MAX_FRAGMENT_UNIFORM_VECTORS:
      *params = lim.max_fragment_uniform_vectors;
      break;
    case GL_MAX_TEXTURE_IMAGE_UNITS:
      *params = lim.max_texture_image_units;
      break;
    case GL_MAX_VERTEX_TEXTURE_IMAGE_UNITS:
      *params = lim.max_vertex_texture_image_units;
      break;
    case GL_MAX_COMBINED_TEXTURE_IMAGE_UNITS:
      *params = lim.max_texture_image_units +
                lim.max_vertex_texture_image_units;
      break;
    case GL_IMPLEMENTATION_COLOR_READ_FORMAT: *params = GL_RGBA; break;
    case GL_IMPLEMENTATION_COLOR_READ_TYPE: *params = GL_UNSIGNED_BYTE; break;
    case GL_VIEWPORT:
      params[0] = vp_x_; params[1] = vp_y_;
      params[2] = vp_w_; params[3] = vp_h_;
      break;
    default:
      SetError(GL_INVALID_ENUM);
  }
}

const char* Context::GetString(GLenum name) {
  Sync();
  switch (name) {
    case GL_VENDOR: return "mgpu";
    case GL_RENDERER: return config_.renderer_name.c_str();
    case GL_VERSION: return "OpenGL ES 2.0 (mgpu simulator)";
    case GL_SHADING_LANGUAGE_VERSION: return "OpenGL ES GLSL ES 1.00";
    case GL_EXTENSIONS: return "";  // deliberately none: the paper's setting
    default:
      SetError(GL_INVALID_ENUM);
      return "";
  }
}

void Context::GetShaderPrecisionFormat(GLenum shader_type,
                                       GLenum precision_type, GLint* range,
                                       GLint* precision) {
  Sync();
  if (shader_type != GL_VERTEX_SHADER && shader_type != GL_FRAGMENT_SHADER) {
    SetError(GL_INVALID_ENUM);
    return;
  }
  const bool fragment = shader_type == GL_FRAGMENT_SHADER;
  switch (precision_type) {
    case GL_HIGH_FLOAT:
      if (fragment && !config_.limits.fragment_highp_float) {
        range[0] = range[1] = 0;
        *precision = 0;  // unsupported (paper §IV-E footnote 1)
      } else {
        range[0] = range[1] = 127;
        *precision = 23;  // IEEE-754-sized mantissa, as on VideoCore IV
      }
      return;
    case GL_MEDIUM_FLOAT:
      range[0] = range[1] = 15;
      *precision = 10;
      return;
    case GL_LOW_FLOAT:
      range[0] = range[1] = 1;
      *precision = 8;
      return;
    case GL_HIGH_INT:
      range[0] = range[1] = 24;
      *precision = 0;
      return;
    case GL_MEDIUM_INT:
      range[0] = range[1] = 10;
      *precision = 0;
      return;
    case GL_LOW_INT:
      range[0] = range[1] = 8;
      *precision = 0;
      return;
    default:
      SetError(GL_INVALID_ENUM);
  }
}

// ---------------------------------------------------------------------------
// Shaders & programs
// ---------------------------------------------------------------------------

ShaderObject* Context::GetShader(GLuint id) {
  const auto it = shaders_.find(id);
  return it != shaders_.end() ? it->second.get() : nullptr;
}

ProgramObject* Context::GetProgram(GLuint id) {
  const auto it = programs_.find(id);
  return it != programs_.end() ? it->second.get() : nullptr;
}

GLuint Context::CreateShader(GLenum type) {
  // Returns a fresh id, so it must observe every deferred create/delete.
  Sync();
  if (type != GL_VERTEX_SHADER && type != GL_FRAGMENT_SHADER) {
    SetError(GL_INVALID_ENUM);
    return 0;
  }
  const GLuint id = next_id_++;
  auto obj = std::make_unique<ShaderObject>();
  obj->type = type;
  shaders_[id] = std::move(obj);
  return id;
}

void Context::ShaderSource(GLuint shader, const std::string& source) {
  if (Recording()) {
    record_->Push([shader, source](Context& c) { c.ShaderSource(shader, source); });
    return;
  }
  ShaderObject* s = GetShader(shader);
  if (s == nullptr) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  s->source = source;
}

void Context::CompileShader(GLuint shader) {
  if (Recording()) {
    record_->Push([shader](Context& c) { c.CompileShader(shader); });
    return;
  }
  ShaderObject* s = GetShader(shader);
  if (s == nullptr) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  s->compile_attempted = true;
  glsl::CompileResult r = glsl::CompileGlsl(
      s->source,
      s->type == GL_VERTEX_SHADER ? glsl::Stage::kVertex
                                  : glsl::Stage::kFragment,
      config_.limits);
  s->compile_ok = r.ok;
  s->info_log = r.info_log;
  s->compiled = std::move(r.shader);
}

void Context::GetShaderiv(GLuint shader, GLenum pname, GLint* params) {
  Sync();
  ShaderObject* s = GetShader(shader);
  if (s == nullptr) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  switch (pname) {
    case GL_COMPILE_STATUS: *params = s->compile_ok ? GL_TRUE : GL_FALSE; break;
    case GL_SHADER_TYPE: *params = static_cast<GLint>(s->type); break;
    case GL_INFO_LOG_LENGTH:
      *params = static_cast<GLint>(s->info_log.size()) + 1;
      break;
    case GL_SHADER_SOURCE_LENGTH:
      *params = static_cast<GLint>(s->source.size()) + 1;
      break;
    case GL_DELETE_STATUS: *params = GL_FALSE; break;
    default: SetError(GL_INVALID_ENUM);
  }
}

std::string Context::GetShaderInfoLog(GLuint shader) {
  Sync();
  ShaderObject* s = GetShader(shader);
  if (s == nullptr) {
    SetError(GL_INVALID_VALUE);
    return {};
  }
  return s->info_log;
}

void Context::DeleteShader(GLuint shader) {
  if (Recording()) {
    record_->Push([shader](Context& c) { c.DeleteShader(shader); });
    return;
  }
  shaders_.erase(shader);
}

GLuint Context::CreateProgram() {
  Sync();
  const GLuint id = next_id_++;
  programs_[id] = std::make_unique<ProgramObject>();
  return id;
}

void Context::AttachShader(GLuint program, GLuint shader) {
  if (Recording()) {
    record_->Push([program, shader](Context& c) { c.AttachShader(program, shader); });
    return;
  }
  ProgramObject* p = GetProgram(program);
  ShaderObject* s = GetShader(shader);
  if (p == nullptr || s == nullptr) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  if (s->type == GL_VERTEX_SHADER) {
    p->vertex_shader = shader;
  } else {
    p->fragment_shader = shader;
  }
}

void Context::BindAttribLocation(GLuint program, GLuint index,
                                 const std::string& name) {
  if (Recording()) {
    record_->Push([program, index, name](Context& c) {
      c.BindAttribLocation(program, index, name);
    });
    return;
  }
  ProgramObject* p = GetProgram(program);
  if (p == nullptr) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  if (name.rfind("gl_", 0) == 0) {
    SetError(GL_INVALID_OPERATION);
    return;
  }
  p->bound_attribs[name] = static_cast<GLint>(index);
}

void Context::LinkProgram(GLuint program) {
  if (Recording()) {
    record_->Push([program](Context& c) { c.LinkProgram(program); });
    return;
  }
  ProgramObject* p = GetProgram(program);
  if (p == nullptr) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  // Cached worker clones pin the program's old bytecode and globals; a
  // relink (successful or not) makes them stale.
  shade_cache_.InvalidateProgram(program);
  gles2::LinkProgram(*p, shaders_, *alu_, config_.limits);
  // Stamp the context's resolved SIMD tier onto the fresh engines; worker
  // clones built from fvm inherit it at construction.
  if (p->link_ok) {
    p->vvm->SetSimdLevel(simd_level_);
    p->fvm->SetSimdLevel(simd_level_);
  }
}

void Context::GetProgramiv(GLuint program, GLenum pname, GLint* params) {
  Sync();
  ProgramObject* p = GetProgram(program);
  if (p == nullptr) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  switch (pname) {
    case GL_LINK_STATUS: *params = p->link_ok ? GL_TRUE : GL_FALSE; break;
    case GL_VALIDATE_STATUS: *params = p->link_ok ? GL_TRUE : GL_FALSE; break;
    case GL_INFO_LOG_LENGTH:
      *params = static_cast<GLint>(p->info_log.size()) + 1;
      break;
    case GL_ACTIVE_UNIFORMS:
      *params = static_cast<GLint>(p->uniforms.size());
      break;
    case GL_ACTIVE_ATTRIBUTES:
      *params = static_cast<GLint>(p->attribs.size());
      break;
    case GL_ATTACHED_SHADERS:
      *params = (p->vertex_shader != 0 ? 1 : 0) +
                (p->fragment_shader != 0 ? 1 : 0);
      break;
    case GL_DELETE_STATUS: *params = GL_FALSE; break;
    default: SetError(GL_INVALID_ENUM);
  }
}

std::string Context::GetProgramInfoLog(GLuint program) {
  Sync();
  ProgramObject* p = GetProgram(program);
  if (p == nullptr) {
    SetError(GL_INVALID_VALUE);
    return {};
  }
  return p->info_log;
}

void Context::UseProgram(GLuint program) {
  if (Recording()) {
    record_->Push([program](Context& c) { c.UseProgram(program); });
    return;
  }
  if (program != 0 && GetProgram(program) == nullptr) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  if (program != 0 && !GetProgram(program)->link_ok) {
    SetError(GL_INVALID_OPERATION);
    return;
  }
  current_program_ = program;
}

void Context::DeleteProgram(GLuint program) {
  if (Recording()) {
    record_->Push([program](Context& c) { c.DeleteProgram(program); });
    return;
  }
  if (current_program_ == program) current_program_ = 0;
  shade_cache_.InvalidateProgram(program);
  programs_.erase(program);
}

GLint Context::GetUniformLocation(GLuint program, const std::string& name) {
  Sync();  // the deferred LinkProgram must have produced the location table
  ProgramObject* p = GetProgram(program);
  if (p == nullptr || !p->link_ok) {
    SetError(GL_INVALID_OPERATION);
    return -1;
  }
  return p->LookupUniform(name);
}

GLint Context::GetAttribLocation(GLuint program, const std::string& name) {
  Sync();
  ProgramObject* p = GetProgram(program);
  if (p == nullptr || !p->link_ok) {
    SetError(GL_INVALID_OPERATION);
    return -1;
  }
  for (const AttribInfo& a : p->attribs) {
    if (a.name == name) return a.location;
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Uniforms
// ---------------------------------------------------------------------------

void Context::SetUniformValue(const UniformInfo& u, int element, int comps,
                              const float* fdata, const GLint* idata,
                              int count, bool is_matrix) {
  ProgramObject* p = GetProgram(current_program_);
  const int type_comps = glsl::ComponentCount(u.type.base);
  const bool type_is_matrix = glsl::IsMatrix(u.type.base);
  const BaseType scalar = glsl::ScalarOf(u.type.base);
  const bool wants_float = scalar == BaseType::kFloat;
  const bool sampler = glsl::IsSampler(u.type.base);

  if (is_matrix != type_is_matrix) {
    SetError(GL_INVALID_OPERATION);
    return;
  }
  if (!is_matrix && comps != type_comps) {
    SetError(GL_INVALID_OPERATION);
    return;
  }
  if (is_matrix && comps != type_comps) {
    SetError(GL_INVALID_OPERATION);
    return;
  }
  if (fdata != nullptr && !wants_float) {
    SetError(GL_INVALID_OPERATION);
    return;
  }
  if (idata != nullptr && wants_float) {
    SetError(GL_INVALID_OPERATION);
    return;
  }
  const int max_elements = u.type.IsArray() ? u.type.array_size : 1;
  if (count > 1 && !u.type.IsArray()) {
    SetError(GL_INVALID_OPERATION);
    return;
  }
  count = std::min(count, max_elements - element);

  // Uniforms are mirrored into both execution engines of each stage so the
  // ExecEngine switch can flip between draws without a re-sync.
  const std::array<std::pair<glsl::ShaderEngine*, int>, 4> engines{{
      {p->vexec.get(), u.vs_slot},
      {p->vvm.get(), u.vs_slot},
      {p->fexec.get(), u.fs_slot},
      {p->fvm.get(), u.fs_slot},
  }};
  for (const auto& [exec, slot] : engines) {
    if (exec == nullptr || slot < 0) continue;
    Value& val = exec->GlobalAt(slot);
    for (int e = 0; e < count; ++e) {
      const int cell_base = (element + e) * type_comps;
      for (int c = 0; c < type_comps; ++c) {
        if (wants_float) {
          val.SetF(cell_base + c, fdata[e * type_comps + c]);
        } else if (sampler || scalar == BaseType::kInt) {
          val.SetI(cell_base + c, idata[e * type_comps + c]);
        } else {  // bool
          val.SetB(cell_base + c, idata[e * type_comps + c] != 0);
        }
      }
    }
  }
}

#define MGPU_RESOLVE_LOC_OR_RETURN()                                       \
  ProgramObject* p = GetProgram(current_program_);                        \
  if (p == nullptr || !p->link_ok) {                                      \
    SetError(GL_INVALID_OPERATION);                                       \
    return;                                                               \
  }                                                                       \
  if (loc < 0) return; /* silently ignored, GL semantics */               \
  if (loc >= static_cast<GLint>(p->locations.size())) {                   \
    SetError(GL_INVALID_OPERATION);                                       \
    return;                                                               \
  }                                                                       \
  const ProgramObject::LocationEntry entry =                              \
      p->locations[static_cast<std::size_t>(loc)];                        \
  const UniformInfo& u = p->uniforms[static_cast<std::size_t>(entry.uniform_index)]

void Context::Uniform1f(GLint loc, GLfloat x) {
  if (Recording()) {
    record_->Push([loc, x](Context& c) { c.Uniform1f(loc, x); });
    return;
  }
  MGPU_RESOLVE_LOC_OR_RETURN();
  SetUniformValue(u, entry.element, 1, &x, nullptr, 1, false);
}

void Context::Uniform2f(GLint loc, GLfloat x, GLfloat y) {
  if (Recording()) {
    record_->Push([loc, x, y](Context& c) { c.Uniform2f(loc, x, y); });
    return;
  }
  MGPU_RESOLVE_LOC_OR_RETURN();
  const float v[2] = {x, y};
  SetUniformValue(u, entry.element, 2, v, nullptr, 1, false);
}

void Context::Uniform3f(GLint loc, GLfloat x, GLfloat y, GLfloat z) {
  if (Recording()) {
    record_->Push([loc, x, y, z](Context& c) { c.Uniform3f(loc, x, y, z); });
    return;
  }
  MGPU_RESOLVE_LOC_OR_RETURN();
  const float v[3] = {x, y, z};
  SetUniformValue(u, entry.element, 3, v, nullptr, 1, false);
}

void Context::Uniform4f(GLint loc, GLfloat x, GLfloat y, GLfloat z,
                        GLfloat w) {
  if (Recording()) {
    record_->Push(
        [loc, x, y, z, w](Context& c) { c.Uniform4f(loc, x, y, z, w); });
    return;
  }
  MGPU_RESOLVE_LOC_OR_RETURN();
  const float v[4] = {x, y, z, w};
  SetUniformValue(u, entry.element, 4, v, nullptr, 1, false);
}

void Context::Uniform1i(GLint loc, GLint x) {
  if (Recording()) {
    record_->Push([loc, x](Context& c) { c.Uniform1i(loc, x); });
    return;
  }
  MGPU_RESOLVE_LOC_OR_RETURN();
  SetUniformValue(u, entry.element, 1, nullptr, &x, 1, false);
}

// The *fv uploads deep-copy count*comps floats at record time — exactly the
// span the GL contract obliges the caller to supply; a null pointer stays
// null so replay errors (or crashes) just as immediate mode would.

void Context::Uniform1fv(GLint loc, GLsizei count, const GLfloat* v) {
  if (Recording()) {
    auto copy = cmd::CopyFloats(v, count, 1);
    record_->Push([loc, count, copy](Context& c) {
      c.Uniform1fv(loc, count, cmd::FloatArg(copy));
    });
    return;
  }
  MGPU_RESOLVE_LOC_OR_RETURN();
  SetUniformValue(u, entry.element, 1, v, nullptr, count, false);
}

void Context::Uniform2fv(GLint loc, GLsizei count, const GLfloat* v) {
  if (Recording()) {
    auto copy = cmd::CopyFloats(v, count, 2);
    record_->Push([loc, count, copy](Context& c) {
      c.Uniform2fv(loc, count, cmd::FloatArg(copy));
    });
    return;
  }
  MGPU_RESOLVE_LOC_OR_RETURN();
  SetUniformValue(u, entry.element, 2, v, nullptr, count, false);
}

void Context::Uniform4fv(GLint loc, GLsizei count, const GLfloat* v) {
  if (Recording()) {
    auto copy = cmd::CopyFloats(v, count, 4);
    record_->Push([loc, count, copy](Context& c) {
      c.Uniform4fv(loc, count, cmd::FloatArg(copy));
    });
    return;
  }
  MGPU_RESOLVE_LOC_OR_RETURN();
  SetUniformValue(u, entry.element, 4, v, nullptr, count, false);
}

void Context::UniformMatrix4fv(GLint loc, GLsizei count, GLboolean transpose,
                               const GLfloat* v) {
  if (Recording()) {
    // A transpose request errors before reading `v`, so only copy when the
    // immediate path would read.
    auto copy =
        transpose == GL_FALSE ? cmd::CopyFloats(v, count, 16) : nullptr;
    record_->Push([loc, count, transpose, copy](Context& c) {
      c.UniformMatrix4fv(loc, count, transpose, cmd::FloatArg(copy));
    });
    return;
  }
  if (transpose != GL_FALSE) {
    SetError(GL_INVALID_VALUE);  // must be FALSE in ES 2.0
    return;
  }
  MGPU_RESOLVE_LOC_OR_RETURN();
  SetUniformValue(u, entry.element, 16, v, nullptr, count, true);
}

#undef MGPU_RESOLVE_LOC_OR_RETURN

// ---------------------------------------------------------------------------
// Vertex attributes & buffers
// ---------------------------------------------------------------------------

void Context::EnableVertexAttribArray(GLuint index) {
  if (Recording()) {
    record_->EnableVertexAttribArray(index);
    return;
  }
  if (index >= attribs_.size()) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  attribs_[index].enabled = true;
}

void Context::DisableVertexAttribArray(GLuint index) {
  if (Recording()) {
    record_->DisableVertexAttribArray(index);
    return;
  }
  if (index >= attribs_.size()) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  attribs_[index].enabled = false;
}

void Context::VertexAttribPointer(GLuint index, GLint size, GLenum type,
                                  GLboolean normalized, GLsizei stride,
                                  const void* pointer) {
  if (Recording()) {
    record_->VertexAttribPointer(index, size, type, normalized, stride,
                                 pointer);
    return;
  }
  if (index >= attribs_.size()) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  if (size < 1 || size > 4 || stride < 0) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  if (type != GL_FLOAT && type != GL_UNSIGNED_BYTE && type != GL_BYTE &&
      type != GL_SHORT && type != GL_UNSIGNED_SHORT) {
    SetError(GL_INVALID_ENUM);
    return;
  }
  AttribState& a = attribs_[index];
  a.size = size;
  a.type = type;
  a.normalized = normalized;
  a.stride = stride;
  a.pointer = pointer;
  a.buffer = array_buffer_;
}

void Context::VertexAttrib4f(GLuint index, GLfloat x, GLfloat y, GLfloat z,
                             GLfloat w) {
  if (Recording()) {
    record_->Push([index, x, y, z, w](Context& c) {
      c.VertexAttrib4f(index, x, y, z, w);
    });
    return;
  }
  if (index >= attribs_.size()) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  attribs_[index].constant = {x, y, z, w};
}

BufferObject* Context::GetBuffer(GLuint id) {
  const auto it = buffers_.find(id);
  return it != buffers_.end() ? it->second.get() : nullptr;
}

void Context::GenBuffers(GLsizei n, GLuint* ids) {
  Sync();  // returns fresh ids: must observe every deferred create/delete
  for (GLsizei i = 0; i < n; ++i) {
    const GLuint id = next_id_++;
    buffers_[id] = std::make_unique<BufferObject>();
    ids[i] = id;
  }
}

void Context::BindBuffer(GLenum target, GLuint id) {
  if (Recording()) {
    record_->BindBuffer(target, id);
    return;
  }
  if (id != 0 && GetBuffer(id) == nullptr) {
    buffers_[id] = std::make_unique<BufferObject>();
  }
  if (target == GL_ARRAY_BUFFER) {
    array_buffer_ = id;
  } else if (target == GL_ELEMENT_ARRAY_BUFFER) {
    element_array_buffer_ = id;
  } else {
    SetError(GL_INVALID_ENUM);
  }
}

void Context::BufferData(GLenum target, GLsizeiptr size, const void* data,
                         GLenum usage) {
  if (Recording()) {
    // Copy the client bytes now (the GL contract consumes them at the
    // call); a null pointer or non-positive size reads nothing, exactly
    // like the immediate path.
    std::shared_ptr<std::vector<std::uint8_t>> copy;
    if (data != nullptr && size > 0) {
      const auto* src = static_cast<const std::uint8_t*>(data);
      copy = std::make_shared<std::vector<std::uint8_t>>(
          src, src + static_cast<std::size_t>(size));
    }
    record_->Push([target, size, copy, usage](Context& c) {
      c.BufferData(target, size, copy ? copy->data() : nullptr, usage);
    });
    return;
  }
  const GLuint id =
      target == GL_ARRAY_BUFFER ? array_buffer_ : element_array_buffer_;
  BufferObject* b = GetBuffer(id);
  if (b == nullptr) {
    SetError(GL_INVALID_OPERATION);
    return;
  }
  if (size < 0) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  b->usage = usage;
  b->data.assign(static_cast<std::size_t>(size), 0);
  if (data != nullptr) {
    std::memcpy(b->data.data(), data, static_cast<std::size_t>(size));
  }
}

void Context::BufferSubData(GLenum target, GLintptr offset, GLsizeiptr size,
                            const void* data) {
  // Sync point, not recorded: whether the source bytes may be read at all
  // depends on the bound buffer's current size, which only the executed
  // stream knows — a record-time copy could read bytes the immediate path
  // would reject with GL_INVALID_VALUE before touching.
  Sync();
  const GLuint id =
      target == GL_ARRAY_BUFFER ? array_buffer_ : element_array_buffer_;
  BufferObject* b = GetBuffer(id);
  if (b == nullptr) {
    SetError(GL_INVALID_OPERATION);
    return;
  }
  // Sum in unsigned arithmetic: two non-negative values cannot wrap there,
  // while the signed `offset + size` overflows near LONG_MAX.
  if (offset < 0 || size < 0 ||
      static_cast<std::size_t>(offset) + static_cast<std::size_t>(size) >
          b->data.size()) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  std::memcpy(b->data.data() + offset, data, static_cast<std::size_t>(size));
}

void Context::DeleteBuffers(GLsizei n, const GLuint* ids) {
  if (Recording()) {
    record_->DeleteBuffers(n, ids);
    return;
  }
  for (GLsizei i = 0; i < n; ++i) {
    buffers_.erase(ids[i]);
    if (array_buffer_ == ids[i]) array_buffer_ = 0;
    if (element_array_buffer_ == ids[i]) element_array_buffer_ = 0;
    // Delete-detach semantics: attributes sourcing the deleted buffer fall
    // back to a null client pointer, so a later draw fails cleanly with
    // GL_INVALID_OPERATION instead of dereferencing a stale id (and a
    // recorded draw can never resurrect freed storage).
    if (ids[i] != 0) {
      for (AttribState& a : attribs_) {
        if (a.buffer == ids[i]) {
          a.buffer = 0;
          a.pointer = nullptr;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Textures
// ---------------------------------------------------------------------------

Texture* Context::GetTextureObject(GLuint id) {
  Sync();
  return LookupTexture(id);
}

// Non-syncing lookup for internal draw-time use: the texture callbacks run
// on pool workers while the device thread owns the draw, where a sync
// prologue would join against ourselves.
Texture* Context::LookupTexture(GLuint id) {
  const auto it = textures_.find(id);
  return it != textures_.end() ? it->second.get() : nullptr;
}

void Context::GenTextures(GLsizei n, GLuint* ids) {
  Sync();  // returns fresh ids: must observe every deferred create/delete
  for (GLsizei i = 0; i < n; ++i) {
    const GLuint id = next_id_++;
    textures_[id] = std::make_unique<Texture>();
    ids[i] = id;
  }
}

void Context::ActiveTexture(GLenum unit) {
  if (Recording()) {
    record_->Push([unit](Context& c) { c.ActiveTexture(unit); });
    return;
  }
  const int idx = static_cast<int>(unit - GL_TEXTURE0);
  if (idx < 0 || idx >= static_cast<int>(units_.size())) {
    SetError(GL_INVALID_ENUM);
    return;
  }
  active_unit_ = idx;
}

void Context::BindTexture(GLenum target, GLuint id) {
  if (Recording()) {
    record_->Push([target, id](Context& c) { c.BindTexture(target, id); });
    return;
  }
  if (target == GL_TEXTURE_CUBE_MAP) {
    SetError(GL_INVALID_ENUM);  // documented subset: no cube maps
    return;
  }
  if (target != GL_TEXTURE_2D) {
    SetError(GL_INVALID_ENUM);
    return;
  }
  if (id != 0 && LookupTexture(id) == nullptr) {
    textures_[id] = std::make_unique<Texture>();
  }
  units_[static_cast<std::size_t>(active_unit_)].bound_2d = id;
}

void Context::TexImage2D(GLenum target, GLint level, GLint internal_format,
                         GLsizei width, GLsizei height, GLint border,
                         GLenum format, GLenum type, const void* data) {
  // Sync point, not recorded: how many client bytes a legal upload may
  // read depends on texture state only the executed stream knows, so the
  // upload runs inline against drained state instead of deep-copying.
  Sync();
  if (target != GL_TEXTURE_2D) {
    SetError(GL_INVALID_ENUM);
    return;
  }
  if (border != 0) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  if (width > config_.max_texture_size || height > config_.max_texture_size) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  Texture* t = LookupTexture(
      units_[static_cast<std::size_t>(active_unit_)].bound_2d);
  if (t == nullptr) {
    SetError(GL_INVALID_OPERATION);
    return;
  }
  const GLenum err =
      t->TexImage2D(level, static_cast<GLenum>(internal_format), width,
                    height, format, type, data, unpack_alignment_);
  if (err != GL_NO_ERROR) SetError(err);
}

void Context::TexSubImage2D(GLenum target, GLint level, GLint xoffset,
                            GLint yoffset, GLsizei width, GLsizei height,
                            GLenum format, GLenum type, const void* data) {
  Sync();  // same contract as TexImage2D
  if (target != GL_TEXTURE_2D) {
    SetError(GL_INVALID_ENUM);
    return;
  }
  Texture* t = LookupTexture(
      units_[static_cast<std::size_t>(active_unit_)].bound_2d);
  if (t == nullptr) {
    SetError(GL_INVALID_OPERATION);
    return;
  }
  const GLenum err = t->TexSubImage2D(level, xoffset, yoffset, width, height,
                                      format, type, data, unpack_alignment_);
  if (err != GL_NO_ERROR) SetError(err);
}

void Context::TexParameteri(GLenum target, GLenum pname, GLint param) {
  if (Recording()) {
    record_->Push(
        [target, pname, param](Context& c) { c.TexParameteri(target, pname, param); });
    return;
  }
  if (target != GL_TEXTURE_2D) {
    SetError(GL_INVALID_ENUM);
    return;
  }
  Texture* t = LookupTexture(
      units_[static_cast<std::size_t>(active_unit_)].bound_2d);
  if (t == nullptr) {
    SetError(GL_INVALID_OPERATION);
    return;
  }
  const GLenum err = t->SetParameter(pname, param);
  if (err != GL_NO_ERROR) SetError(err);
}

void Context::DeleteTextures(GLsizei n, const GLuint* ids) {
  if (Recording()) {
    std::shared_ptr<std::vector<GLuint>> copy;
    if (ids != nullptr && n > 0) {
      copy = std::make_shared<std::vector<GLuint>>(ids, ids + n);
    }
    record_->Push([n, copy](Context& c) {
      c.DeleteTextures(copy ? static_cast<GLsizei>(copy->size()) : n,
                       copy ? copy->data() : nullptr);
    });
    return;
  }
  for (GLsizei i = 0; i < n; ++i) {
    textures_.erase(ids[i]);
    for (TextureUnit& u : units_) {
      if (u.bound_2d == ids[i]) u.bound_2d = 0;
    }
    // Delete-detach semantics: framebuffers holding the dead texture drop
    // to an unattached state (rendering then fails framebuffer-incomplete
    // instead of chasing a stale id into freed storage).
    if (ids[i] != 0) {
      for (auto& [fb_id, fb] : framebuffers_) {
        if (fb->color.kind == FramebufferAttachment::Kind::kTexture &&
            fb->color.object == ids[i]) {
          fb->color = FramebufferAttachment{};
        }
        if (fb->depth.kind == FramebufferAttachment::Kind::kTexture &&
            fb->depth.object == ids[i]) {
          fb->depth = FramebufferAttachment{};
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Renderbuffers & framebuffers
// ---------------------------------------------------------------------------

RenderbufferObject* Context::GetRenderbuffer(GLuint id) {
  const auto it = renderbuffers_.find(id);
  return it != renderbuffers_.end() ? it->second.get() : nullptr;
}

FramebufferObject* Context::GetFramebuffer(GLuint id) {
  const auto it = framebuffers_.find(id);
  return it != framebuffers_.end() ? it->second.get() : nullptr;
}

void Context::GenRenderbuffers(GLsizei n, GLuint* ids) {
  Sync();  // returns fresh ids: must observe every deferred create/delete
  for (GLsizei i = 0; i < n; ++i) {
    const GLuint id = next_id_++;
    renderbuffers_[id] = std::make_unique<RenderbufferObject>();
    ids[i] = id;
  }
}

void Context::BindRenderbuffer(GLenum target, GLuint id) {
  if (Recording()) {
    record_->Push([target, id](Context& c) { c.BindRenderbuffer(target, id); });
    return;
  }
  if (target != GL_RENDERBUFFER) {
    SetError(GL_INVALID_ENUM);
    return;
  }
  if (id != 0 && GetRenderbuffer(id) == nullptr) {
    renderbuffers_[id] = std::make_unique<RenderbufferObject>();
  }
  bound_renderbuffer_ = id;
}

void Context::RenderbufferStorage(GLenum target, GLenum internal_format,
                                  GLsizei w, GLsizei h) {
  if (Recording()) {
    record_->Push([target, internal_format, w, h](Context& c) {
      c.RenderbufferStorage(target, internal_format, w, h);
    });
    return;
  }
  if (target != GL_RENDERBUFFER) {
    SetError(GL_INVALID_ENUM);
    return;
  }
  if (w < 0 || h < 0 || w > config_.max_texture_size ||
      h > config_.max_texture_size) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  RenderbufferObject* rb = GetRenderbuffer(bound_renderbuffer_);
  if (rb == nullptr) {
    SetError(GL_INVALID_OPERATION);
    return;
  }
  switch (internal_format) {
    case GL_RGBA4:
    case GL_RGB5_A1:
    case GL_RGB565:
      rb->internal_format = internal_format;
      rb->width = w;
      rb->height = h;
      rb->color.assign(static_cast<std::size_t>(w) * h * 4, 0);
      rb->depth.clear();
      return;
    case GL_DEPTH_COMPONENT16:
      rb->internal_format = internal_format;
      rb->width = w;
      rb->height = h;
      rb->depth.assign(static_cast<std::size_t>(w) * h, 1.0f);
      rb->color.clear();
      return;
    default:
      SetError(GL_INVALID_ENUM);  // no float renderbuffers in ES 2.0 either
  }
}

void Context::DeleteRenderbuffers(GLsizei n, const GLuint* ids) {
  if (Recording()) {
    std::shared_ptr<std::vector<GLuint>> copy;
    if (ids != nullptr && n > 0) {
      copy = std::make_shared<std::vector<GLuint>>(ids, ids + n);
    }
    record_->Push([n, copy](Context& c) {
      c.DeleteRenderbuffers(copy ? static_cast<GLsizei>(copy->size()) : n,
                            copy ? copy->data() : nullptr);
    });
    return;
  }
  for (GLsizei i = 0; i < n; ++i) {
    renderbuffers_.erase(ids[i]);
    if (bound_renderbuffer_ == ids[i]) bound_renderbuffer_ = 0;
    // Delete-detach, matching DeleteTextures.
    if (ids[i] != 0) {
      for (auto& [fb_id, fb] : framebuffers_) {
        if (fb->color.kind == FramebufferAttachment::Kind::kRenderbuffer &&
            fb->color.object == ids[i]) {
          fb->color = FramebufferAttachment{};
        }
        if (fb->depth.kind == FramebufferAttachment::Kind::kRenderbuffer &&
            fb->depth.object == ids[i]) {
          fb->depth = FramebufferAttachment{};
        }
      }
    }
  }
}

void Context::GenFramebuffers(GLsizei n, GLuint* ids) {
  Sync();  // returns fresh ids: must observe every deferred create/delete
  for (GLsizei i = 0; i < n; ++i) {
    const GLuint id = next_id_++;
    framebuffers_[id] = std::make_unique<FramebufferObject>();
    ids[i] = id;
  }
}

void Context::BindFramebuffer(GLenum target, GLuint id) {
  if (Recording()) {
    record_->Push([target, id](Context& c) { c.BindFramebuffer(target, id); });
    return;
  }
  if (target != GL_FRAMEBUFFER) {
    SetError(GL_INVALID_ENUM);
    return;
  }
  if (id != 0 && GetFramebuffer(id) == nullptr) {
    framebuffers_[id] = std::make_unique<FramebufferObject>();
  }
  bound_framebuffer_ = id;
}

void Context::FramebufferTexture2D(GLenum target, GLenum attachment,
                                   GLenum textarget, GLuint texture,
                                   GLint level) {
  if (Recording()) {
    record_->Push([target, attachment, textarget, texture, level](Context& c) {
      c.FramebufferTexture2D(target, attachment, textarget, texture, level);
    });
    return;
  }
  if (target != GL_FRAMEBUFFER || textarget != GL_TEXTURE_2D) {
    SetError(GL_INVALID_ENUM);
    return;
  }
  if (level != 0) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  FramebufferObject* fb = GetFramebuffer(bound_framebuffer_);
  if (fb == nullptr) {
    SetError(GL_INVALID_OPERATION);
    return;
  }
  FramebufferAttachment att;
  att.kind = texture == 0 ? FramebufferAttachment::Kind::kNone
                          : FramebufferAttachment::Kind::kTexture;
  att.object = texture;
  if (attachment == GL_COLOR_ATTACHMENT0) {
    fb->color = att;
  } else if (attachment == GL_DEPTH_ATTACHMENT) {
    fb->depth = att;
  } else {
    SetError(GL_INVALID_ENUM);
  }
}

void Context::FramebufferRenderbuffer(GLenum target, GLenum attachment,
                                      GLenum rb_target, GLuint rb) {
  if (Recording()) {
    record_->Push([target, attachment, rb_target, rb](Context& c) {
      c.FramebufferRenderbuffer(target, attachment, rb_target, rb);
    });
    return;
  }
  if (target != GL_FRAMEBUFFER || rb_target != GL_RENDERBUFFER) {
    SetError(GL_INVALID_ENUM);
    return;
  }
  FramebufferObject* fb = GetFramebuffer(bound_framebuffer_);
  if (fb == nullptr) {
    SetError(GL_INVALID_OPERATION);
    return;
  }
  FramebufferAttachment att;
  att.kind = rb == 0 ? FramebufferAttachment::Kind::kNone
                     : FramebufferAttachment::Kind::kRenderbuffer;
  att.object = rb;
  if (attachment == GL_COLOR_ATTACHMENT0) {
    fb->color = att;
  } else if (attachment == GL_DEPTH_ATTACHMENT) {
    fb->depth = att;
  } else {
    SetError(GL_INVALID_ENUM);
  }
}

bool Context::ResolveTarget(RenderTarget* out) {
  if (bound_framebuffer_ == 0) {
    out->color = &fb_color_;
    out->depth = config_.has_depth ? &fb_depth_ : nullptr;
    out->width = config_.width;
    out->height = config_.height;
    return true;
  }
  FramebufferObject* fb = GetFramebuffer(bound_framebuffer_);
  if (fb == nullptr) return false;
  out->color = nullptr;
  out->depth = nullptr;
  switch (fb->color.kind) {
    case FramebufferAttachment::Kind::kTexture: {
      Texture* t = LookupTexture(fb->color.object);
      if (t == nullptr || !t->has_storage() || t->format() != GL_RGBA) {
        return false;
      }
      out->color = &t->mutable_storage();
      out->width = t->width();
      out->height = t->height();
      break;
    }
    case FramebufferAttachment::Kind::kRenderbuffer: {
      RenderbufferObject* rb = GetRenderbuffer(fb->color.object);
      if (rb == nullptr || rb->color.empty()) return false;
      out->color = &rb->color;
      out->width = rb->width;
      out->height = rb->height;
      break;
    }
    case FramebufferAttachment::Kind::kNone:
      return false;  // missing color attachment
  }
  if (fb->depth.kind == FramebufferAttachment::Kind::kRenderbuffer) {
    RenderbufferObject* rb = GetRenderbuffer(fb->depth.object);
    if (rb == nullptr || rb->depth.empty() || rb->width != out->width ||
        rb->height != out->height) {
      return false;
    }
    out->depth = &rb->depth;
  }
  return true;
}

GLenum Context::CheckFramebufferStatus(GLenum target) {
  Sync();  // completeness depends on deferred attachment / storage calls
  if (target != GL_FRAMEBUFFER) {
    SetError(GL_INVALID_ENUM);
    return 0;
  }
  if (bound_framebuffer_ == 0) return GL_FRAMEBUFFER_COMPLETE;
  FramebufferObject* fb = GetFramebuffer(bound_framebuffer_);
  if (fb == nullptr) return GL_FRAMEBUFFER_UNSUPPORTED;
  if (fb->color.kind == FramebufferAttachment::Kind::kNone) {
    return GL_FRAMEBUFFER_INCOMPLETE_MISSING_ATTACHMENT;
  }
  RenderTarget rt;
  return ResolveTarget(&rt) ? GL_FRAMEBUFFER_COMPLETE
                            : GL_FRAMEBUFFER_INCOMPLETE_ATTACHMENT;
}

void Context::DeleteFramebuffers(GLsizei n, const GLuint* ids) {
  if (Recording()) {
    std::shared_ptr<std::vector<GLuint>> copy;
    if (ids != nullptr && n > 0) {
      copy = std::make_shared<std::vector<GLuint>>(ids, ids + n);
    }
    record_->Push([n, copy](Context& c) {
      c.DeleteFramebuffers(copy ? static_cast<GLsizei>(copy->size()) : n,
                           copy ? copy->data() : nullptr);
    });
    return;
  }
  for (GLsizei i = 0; i < n; ++i) {
    framebuffers_.erase(ids[i]);
    if (bound_framebuffer_ == ids[i]) bound_framebuffer_ = 0;
  }
}

// ---------------------------------------------------------------------------
// Clear / ReadPixels
// ---------------------------------------------------------------------------

void Context::Clear(GLbitfield mask) {
  if (Recording()) {
    record_->Push([mask](Context& c) { c.Clear(mask); });
    return;
  }
  RenderTarget rt;
  if (!ResolveTarget(&rt)) {
    SetError(GL_INVALID_FRAMEBUFFER_OPERATION);
    return;
  }
  const int x0 = scissor_enabled_ ? std::max(sc_x_, 0) : 0;
  const int y0 = scissor_enabled_ ? std::max(sc_y_, 0) : 0;
  // Scissor edges in 64 bits: x + w can pass INT_MAX.
  const int x1 = scissor_enabled_
                     ? static_cast<int>(std::min<std::int64_t>(
                           std::int64_t{sc_x_} + sc_w_, rt.width))
                     : rt.width;
  const int y1 = scissor_enabled_
                     ? static_cast<int>(std::min<std::int64_t>(
                           std::int64_t{sc_y_} + sc_h_, rt.height))
                     : rt.height;
  if ((mask & GL_COLOR_BUFFER_BIT) != 0 && rt.color != nullptr) {
    std::array<std::uint8_t, 4> c{};
    for (int i = 0; i < 4; ++i) {
      const float f = clear_color_[static_cast<std::size_t>(i)];
      c[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(
          config_.quantization == FbQuantization::kFloorPaper
              ? std::floor(f * 255.0f)
              : std::floor(f * 255.0f + 0.5f));
    }
    for (int y = y0; y < y1; ++y) {
      for (int x = x0; x < x1; ++x) {
        const std::size_t off = (static_cast<std::size_t>(y) * rt.width + x) * 4;
        for (int i = 0; i < 4; ++i) {
          if (color_mask_[static_cast<std::size_t>(i)]) {
            (*rt.color)[off + static_cast<std::size_t>(i)] =
                c[static_cast<std::size_t>(i)];
          }
        }
      }
    }
  }
  if ((mask & GL_DEPTH_BUFFER_BIT) != 0 && rt.depth != nullptr) {
    for (int y = y0; y < y1; ++y) {
      for (int x = x0; x < x1; ++x) {
        (*rt.depth)[static_cast<std::size_t>(y) * rt.width + x] = 1.0f;
      }
    }
  }
}

void Context::ReadPixels(GLint x, GLint y, GLsizei w, GLsizei h,
                         GLenum format, GLenum type, void* pixels) {
  Sync();  // readback must observe every deferred draw
  if (w < 0 || h < 0) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  // The ONLY guaranteed readback path in ES 2.0 (paper limitation #7): the
  // framebuffer, as RGBA8. There is no glGetTexImage.
  if (format != GL_RGBA || type != GL_UNSIGNED_BYTE) {
    SetError(GL_INVALID_ENUM);
    return;
  }
  RenderTarget rt;
  if (!ResolveTarget(&rt) || rt.color == nullptr) {
    SetError(GL_INVALID_FRAMEBUFFER_OPERATION);
    return;
  }
  // Source coordinates and byte offsets in 64 bits: a rect near INT_MAX
  // must read zeros past the framebuffer, not wrap back into it.
  auto* dst = static_cast<std::uint8_t*>(pixels);
  const std::int64_t row_bytes = std::int64_t{w} * 4;
  const std::int64_t stride = (row_bytes + pack_alignment_ - 1) /
                              pack_alignment_ * pack_alignment_;
  for (GLsizei row = 0; row < h; ++row) {
    const std::int64_t sy = std::int64_t{y} + row;
    for (GLsizei col = 0; col < w; ++col) {
      const std::int64_t sx = std::int64_t{x} + col;
      std::uint8_t* out = dst + row * stride + std::int64_t{col} * 4;
      if (sx < 0 || sy < 0 || sx >= rt.width || sy >= rt.height) {
        out[0] = out[1] = out[2] = out[3] = 0;
        continue;
      }
      const std::size_t off = (static_cast<std::size_t>(sy) * rt.width + sx) * 4;
      std::memcpy(out, rt.color->data() + off, 4);
    }
  }
}

// ---------------------------------------------------------------------------
// Drawing
// ---------------------------------------------------------------------------

bool Context::FetchAttribute(const AttribState& a, GLint vertex,
                             std::array<float, 4>* out) const {
  *out = {0.0f, 0.0f, 0.0f, 1.0f};
  if (!a.enabled) {
    *out = a.constant;
    return true;
  }
  int elem_size = 4;
  switch (a.type) {
    case GL_FLOAT: elem_size = 4; break;
    case GL_UNSIGNED_BYTE: case GL_BYTE: elem_size = 1; break;
    case GL_UNSIGNED_SHORT: case GL_SHORT: elem_size = 2; break;
    default: return false;
  }
  const int stride = a.stride != 0 ? a.stride : a.size * elem_size;
  const std::uint8_t* base = nullptr;
  if (a.buffer != 0) {
    const auto it = buffers_.find(a.buffer);
    if (it == buffers_.end()) return false;
    const std::vector<std::uint8_t>& data = it->second->data;
    const std::uintptr_t off = reinterpret_cast<std::uintptr_t>(a.pointer);
    // The highest byte this fetch touches must exist in the store. 64-bit
    // math: stride * vertex can overflow the 32-bit range the individual
    // arguments were validated in.
    if (off > data.size() ||
        static_cast<std::uint64_t>(stride) *
                static_cast<std::uint64_t>(static_cast<GLuint>(vertex)) +
                static_cast<std::uint64_t>(a.size) *
                    static_cast<std::uint64_t>(elem_size) >
            data.size() - off) {
      return false;
    }
    base = data.data() + off;
  } else {
    base = static_cast<const std::uint8_t*>(a.pointer);
  }
  if (base == nullptr) return false;
  const std::uint8_t* src = base + static_cast<std::ptrdiff_t>(stride) * vertex;
  for (int c = 0; c < a.size; ++c) {
    float v = 0.0f;
    switch (a.type) {
      case GL_FLOAT: {
        float f;
        std::memcpy(&f, src + c * 4, 4);
        v = f;
        break;
      }
      case GL_UNSIGNED_BYTE: {
        const std::uint8_t b = src[c];
        v = a.normalized != GL_FALSE ? b / 255.0f : static_cast<float>(b);
        break;
      }
      case GL_BYTE: {
        std::int8_t b;
        std::memcpy(&b, src + c, 1);
        v = a.normalized != GL_FALSE
                ? std::max(b / 127.0f, -1.0f)
                : static_cast<float>(b);
        break;
      }
      case GL_UNSIGNED_SHORT: {
        std::uint16_t s;
        std::memcpy(&s, src + c * 2, 2);
        v = a.normalized != GL_FALSE ? s / 65535.0f : static_cast<float>(s);
        break;
      }
      case GL_SHORT: {
        std::int16_t s;
        std::memcpy(&s, src + c * 2, 2);
        v = a.normalized != GL_FALSE
                ? std::max(s / 32767.0f, -1.0f)
                : static_cast<float>(s);
        break;
      }
      default:
        return false;
    }
    (*out)[static_cast<std::size_t>(c)] = v;
  }
  return true;
}

bool Context::ShadeVerticesScalar(
    ProgramObject* prog, bool use_vm, GLsizei count,
    const std::function<GLuint(GLsizei)>& index_at,
    std::vector<RasterVertex>& verts,
    const glsl::OpCounts& draw_start_counts) {
  glsl::ShaderEngine& vexec =
      use_vm ? static_cast<glsl::ShaderEngine&>(*prog->vvm) : *prog->vexec;
  try {
    for (GLsizei i = 0; i < count; ++i) {
      const GLuint vi = index_at(i);
      for (const AttribInfo& ai : prog->attribs) {
        std::array<float, 4> v{};
        if (!FetchAttribute(attribs_[static_cast<std::size_t>(ai.location)],
                            static_cast<GLint>(vi), &v)) {
          alu_->SetCounts(draw_start_counts);
          SetError(GL_INVALID_OPERATION);
          return false;
        }
        Value& dst = vexec.GlobalAt(ai.vs_slot);
        const int cells = std::min(ai.type.CellCount(), 4);
        for (int c = 0; c < cells; ++c) {
          dst.SetF(c, v[static_cast<std::size_t>(c)]);
        }
      }
      vexec.Run();
      if (draw_budget_ != 0 &&
          alu_->counts().alu - draw_start_counts.alu > draw_budget_) {
        alu_->SetCounts(draw_start_counts);
        last_draw_error_ = kBudgetMsg;
        reset_status_ = GL_GUILTY_CONTEXT_RESET;
        SetError(GL_OUT_OF_MEMORY);
        return false;
      }
      RasterVertex& out = verts[static_cast<std::size_t>(i)];
      out.clip = {0.0f, 0.0f, 0.0f, 1.0f};
      out.point_size = 1.0f;
      if (prog->vs_position_slot >= 0) {
        const Value& pos = vexec.GlobalAt(prog->vs_position_slot);
        out.clip = {pos.F(0), pos.F(1), pos.F(2), pos.F(3)};
      }
      if (prog->vs_point_size_slot >= 0) {
        out.point_size = vexec.GlobalAt(prog->vs_point_size_slot).F(0);
        if (out.point_size <= 0.0f) out.point_size = 1.0f;
      }
      out.varyings.resize(static_cast<std::size_t>(prog->varying_cells));
      for (const VaryingLink& link : prog->varyings) {
        const Value& v = vexec.GlobalAt(link.vs_slot);
        for (int c = 0; c < link.cells; ++c) {
          out.varyings[static_cast<std::size_t>(link.offset + c)] = v.F(c);
        }
      }
    }
  } catch (const glsl::ShaderRuntimeError& e) {
    // Vertex-stage trap: no framebuffer byte was touched yet, so restoring
    // the counter snapshot completes the abort.
    alu_->SetCounts(draw_start_counts);
    last_draw_error_ = e.what();
    reset_status_ = GL_GUILTY_CONTEXT_RESET;
    SetError(GL_INVALID_OPERATION);
    return false;
  }
  return true;
}

bool Context::ShadeVerticesBatched(
    ProgramObject* prog, GLsizei count,
    const std::function<GLuint(GLsizei)>& index_at,
    std::vector<RasterVertex>& verts,
    const glsl::OpCounts& draw_start_counts) {
  glsl::VmExec& vm = *prog->vvm;

  // Lane plumbing, resolved once per program and cached: plane views into
  // vvm. Uniform (non-lane) slots resolve to the shared store, so per-draw
  // uniform sync needs nothing extra here.
  ShadeStateCache::VertexState* vstate =
      shade_cache_.FindVertex(current_program_);
  if (vstate == nullptr) {
    vstate = &shade_cache_.InsertVertex(current_program_);
    const auto plane = [&vm](int slot) {
      return slot >= 0 ? vm.LanePlane(slot) : glsl::BatchDst{};
    };
    vstate->position = plane(prog->vs_position_slot);
    vstate->point_size = plane(prog->vs_point_size_slot);
    vstate->attribs.clear();
    vstate->attribs.reserve(prog->attribs.size());
    for (const AttribInfo& ai : prog->attribs) {
      ShadeStateCache::VertexState::AttribLanes al;
      al.location = ai.location;
      al.cells = std::min(ai.type.CellCount(), 4);
      al.dst = plane(ai.vs_slot);
      vstate->attribs.push_back(al);
    }
    vstate->varyings.clear();
    vstate->varyings.reserve(prog->varyings.size());
    for (const VaryingLink& link : prog->varyings) {
      ShadeStateCache::VertexState::VaryingSrc vl;
      vl.cells = link.cells;
      vl.offset = link.offset;
      vl.src = plane(link.vs_slot);
      vstate->varyings.push_back(vl);
    }
  }

  // Per-draw attribute sources, resolved once: the batched FetchAttribute.
  // Every failure FetchAttribute can report (missing buffer, null base,
  // unknown type enum) is independent of the vertex index, so failing here
  // — before any lane ran — reproduces the scalar loop's first-vertex
  // failure exactly.
  vstate->sources.resize(vstate->attribs.size());
  for (std::size_t k = 0; k < vstate->attribs.size(); ++k) {
    const AttribState& a =
        attribs_[static_cast<std::size_t>(vstate->attribs[k].location)];
    ShadeStateCache::VertexState::AttribSource& s = vstate->sources[k];
    s = {};
    if (!a.enabled) {
      s.constant = a.constant.data();
      continue;
    }
    const std::uint8_t* base = nullptr;
    std::size_t bound = SIZE_MAX;
    if (a.buffer != 0) {
      const auto it = buffers_.find(a.buffer);
      if (it == buffers_.end()) {
        alu_->SetCounts(draw_start_counts);
        SetError(GL_INVALID_OPERATION);
        return false;
      }
      const std::vector<std::uint8_t>& data = it->second->data;
      const std::uintptr_t off = reinterpret_cast<std::uintptr_t>(a.pointer);
      if (off > data.size()) {
        // Offset already past the store: every fetch would read out of
        // bounds, same as the scalar path's first-vertex failure.
        alu_->SetCounts(draw_start_counts);
        SetError(GL_INVALID_OPERATION);
        return false;
      }
      base = data.data() + off;
      bound = data.size() - off;
    } else {
      base = static_cast<const std::uint8_t*>(a.pointer);
    }
    int elem_size = 4;
    switch (a.type) {
      case GL_FLOAT: elem_size = 4; break;
      case GL_UNSIGNED_BYTE: case GL_BYTE: elem_size = 1; break;
      case GL_UNSIGNED_SHORT: case GL_SHORT: elem_size = 2; break;
      default: base = nullptr; break;
    }
    if (base == nullptr) {
      alu_->SetCounts(draw_start_counts);
      SetError(GL_INVALID_OPERATION);
      return false;
    }
    s.base = base;
    s.stride = a.stride != 0 ? a.stride : a.size * elem_size;
    s.type = a.type;
    s.normalized = a.normalized != GL_FALSE;
    s.size = a.size;
    s.bound = bound;
    s.tail = a.size * elem_size;
  }

  std::array<GLuint, glsl::kVmLanes> vidx{};
  try {
    for (GLsizei b0 = 0; b0 < count; b0 += glsl::kVmLanes) {
      const int n = static_cast<int>(
          std::min<GLsizei>(glsl::kVmLanes, count - b0));
      for (int l = 0; l < n; ++l) {
        vidx[static_cast<std::size_t>(l)] = index_at(b0 + l);
      }

      // Bounds gate for VBO-backed sources, per chunk: the highest vertex
      // index in the chunk must fetch entirely inside the buffer store.
      // Client arrays (bound == SIZE_MAX) are the caller's contract, as in
      // the scalar path. Same failure surface as ShadeVerticesScalar's
      // FetchAttribute failure: counters restored, GL_INVALID_OPERATION,
      // no framebuffer byte touched.
      GLuint chunk_max = 0;
      for (int l = 0; l < n; ++l) {
        chunk_max = std::max(chunk_max, vidx[static_cast<std::size_t>(l)]);
      }
      for (const ShadeStateCache::VertexState::AttribSource& s :
           vstate->sources) {
        if (s.base == nullptr || s.bound == SIZE_MAX) continue;
        if (static_cast<std::uint64_t>(s.stride) *
                    static_cast<std::uint64_t>(chunk_max) +
                static_cast<std::uint64_t>(s.tail) >
            s.bound) {
          alu_->SetCounts(draw_start_counts);
          SetError(GL_INVALID_OPERATION);
          return false;
        }
      }

      // Gather: decode each enabled attribute's array elements straight
      // into the lane planes (cell c of lane l at dst.at(c, l)) —
      // FetchAttribute's per-component conversion with the base/stride/type
      // resolution hoisted out of the loop. Components past the array size
      // keep the (0,0,0,1) defaults the scalar path writes.
      for (std::size_t k = 0; k < vstate->attribs.size(); ++k) {
        const ShadeStateCache::VertexState::AttribLanes& al =
            vstate->attribs[k];
        const ShadeStateCache::VertexState::AttribSource& s =
            vstate->sources[k];
        const glsl::BatchDst& dst = al.dst;
        if (s.base == nullptr) {
          for (int c = 0; c < al.cells; ++c) {
            for (int l = 0; l < n; ++l) {
              dst.at(c, l).f = s.constant[static_cast<std::size_t>(c)];
            }
          }
          continue;
        }
        for (int l = 0; l < n; ++l) {
          const std::uint8_t* src =
              s.base + static_cast<std::ptrdiff_t>(s.stride) *
                           vidx[static_cast<std::size_t>(l)];
          for (int c = 0; c < al.cells; ++c) {
            float v = c == 3 ? 1.0f : 0.0f;
            if (c < s.size) {
              switch (s.type) {
                case GL_FLOAT:
                  std::memcpy(&v, src + c * 4, 4);
                  break;
                case GL_UNSIGNED_BYTE: {
                  const std::uint8_t b = src[c];
                  v = s.normalized ? b / 255.0f : static_cast<float>(b);
                  break;
                }
                case GL_BYTE: {
                  std::int8_t b;
                  std::memcpy(&b, src + c, 1);
                  v = s.normalized ? std::max(b / 127.0f, -1.0f)
                                   : static_cast<float>(b);
                  break;
                }
                case GL_UNSIGNED_SHORT: {
                  std::uint16_t h;
                  std::memcpy(&h, src + c * 2, 2);
                  v = s.normalized ? h / 65535.0f : static_cast<float>(h);
                  break;
                }
                case GL_SHORT: {
                  std::int16_t h;
                  std::memcpy(&h, src + c * 2, 2);
                  v = s.normalized ? std::max(h / 32767.0f, -1.0f)
                                   : static_cast<float>(h);
                  break;
                }
                default:
                  break;
              }
            }
            dst.at(c, l).f = v;
          }
        }
      }

      // One instruction-stream pass over the chunk. Lane order == vertex
      // order, so a trapping chunk's minimum trapping lane is the first
      // trapping vertex and the thrown message matches the scalar loop's.
      // (Vertex programs cannot discard; the kept mask is all-ones.)
      (void)vm.RunBatch(n);

      // Watchdog, per chunk instead of per vertex: the totals are monotone
      // toward the same engine-invariant sum, so the trip-vs-not decision
      // is unchanged, and a tripped draw restores the snapshot either way.
      if (draw_budget_ != 0 &&
          alu_->counts().alu - draw_start_counts.alu > draw_budget_) {
        alu_->SetCounts(draw_start_counts);
        last_draw_error_ = kBudgetMsg;
        reset_status_ = GL_GUILTY_CONTEXT_RESET;
        SetError(GL_OUT_OF_MEMORY);
        return false;
      }

      // Scatter, in lane order.
      for (int l = 0; l < n; ++l) {
        const std::size_t li = static_cast<std::size_t>(l);
        RasterVertex& out = verts[static_cast<std::size_t>(b0) + li];
        out.clip = {0.0f, 0.0f, 0.0f, 1.0f};
        out.point_size = 1.0f;
        if (vstate->position.base != nullptr) {
          const glsl::BatchDst& pos = vstate->position;
          out.clip = {pos.at(0, l).f, pos.at(1, l).f, pos.at(2, l).f,
                      pos.at(3, l).f};
        }
        if (vstate->point_size.base != nullptr) {
          out.point_size = vstate->point_size.at(0, l).f;
          if (out.point_size <= 0.0f) out.point_size = 1.0f;
        }
        out.varyings.resize(static_cast<std::size_t>(prog->varying_cells));
        for (const ShadeStateCache::VertexState::VaryingSrc& vl :
             vstate->varyings) {
          for (int c = 0; c < vl.cells; ++c) {
            out.varyings[static_cast<std::size_t>(vl.offset + c)] =
                vl.src.at(c, l).f;
          }
        }
      }
    }
  } catch (const glsl::ShaderRuntimeError& e) {
    // Vertex-stage trap: no framebuffer byte was touched yet, so restoring
    // the counter snapshot completes the abort.
    alu_->SetCounts(draw_start_counts);
    last_draw_error_ = e.what();
    reset_status_ = GL_GUILTY_CONTEXT_RESET;
    SetError(GL_INVALID_OPERATION);
    return false;
  }
  return true;
}

void Context::WritePixel(RenderTarget& rt, int x, int y, float depth,
                         const std::array<float, 4>& color, bool depth_valid,
                         UndoJournal* journal) {
  if (scissor_enabled_) {
    if (x < sc_x_ || y < sc_y_ || x >= std::int64_t{sc_x_} + sc_w_ ||
        y >= std::int64_t{sc_y_} + sc_h_) {
      return;
    }
  }
  if (depth_enabled_ && rt.depth != nullptr && depth_valid) {
    const std::size_t di = static_cast<std::size_t>(y) * rt.width + x;
    float& d = (*rt.depth)[di];
    bool pass = false;
    switch (depth_func_) {
      case GL_NEVER: pass = false; break;
      case GL_LESS: pass = depth < d; break;
      case GL_EQUAL: pass = depth == d; break;
      case GL_LEQUAL: pass = depth <= d; break;
      case GL_GREATER: pass = depth > d; break;
      case GL_NOTEQUAL: pass = depth != d; break;
      case GL_GEQUAL: pass = depth >= d; break;
      case GL_ALWAYS: pass = true; break;
      default: pass = true; break;
    }
    if (!pass) return;
    if (depth_write_) {
      if (journal != nullptr) {
        journal->depth.push_back({static_cast<std::uint32_t>(di), d});
      }
      d = depth;
    }
  }
  if (rt.color == nullptr) return;

  // Clamp to [0,1]: the framebuffer conversion of the paper's Eq. (2).
  std::array<float, 4> src{};
  for (int i = 0; i < 4; ++i) {
    src[static_cast<std::size_t>(i)] =
        std::clamp(color[static_cast<std::size_t>(i)], 0.0f, 1.0f);
  }
  const std::size_t off = (static_cast<std::size_t>(y) * rt.width + x) * 4;
  if (blend_enabled_) {
    std::array<float, 4> dst{};
    for (int i = 0; i < 4; ++i) {
      dst[static_cast<std::size_t>(i)] =
          (*rt.color)[off + static_cast<std::size_t>(i)] / 255.0f;
    }
    auto factor = [&](GLenum f, bool /*is_src*/) -> std::array<float, 4> {
      switch (f) {
        case GL_ZERO: return {0, 0, 0, 0};
        case GL_ONE: return {1, 1, 1, 1};
        case GL_SRC_COLOR: return src;
        case GL_ONE_MINUS_SRC_COLOR:
          return {1 - src[0], 1 - src[1], 1 - src[2], 1 - src[3]};
        case GL_SRC_ALPHA: return {src[3], src[3], src[3], src[3]};
        case GL_ONE_MINUS_SRC_ALPHA: {
          const float a = 1 - src[3];
          return {a, a, a, a};
        }
        case GL_DST_ALPHA: return {dst[3], dst[3], dst[3], dst[3]};
        case GL_ONE_MINUS_DST_ALPHA: {
          const float a = 1 - dst[3];
          return {a, a, a, a};
        }
        case GL_DST_COLOR: return dst;
        case GL_ONE_MINUS_DST_COLOR:
          return {1 - dst[0], 1 - dst[1], 1 - dst[2], 1 - dst[3]};
        default: return {1, 1, 1, 1};
      }
    };
    const auto sf = factor(blend_src_, true);
    const auto df = factor(blend_dst_, false);
    for (int i = 0; i < 4; ++i) {
      const std::size_t ii = static_cast<std::size_t>(i);
      src[ii] = std::clamp(src[ii] * sf[ii] + dst[ii] * df[ii], 0.0f, 1.0f);
    }
  }
  if (journal != nullptr) {
    journal->color.push_back({static_cast<std::uint32_t>(off),
                              {(*rt.color)[off], (*rt.color)[off + 1],
                               (*rt.color)[off + 2], (*rt.color)[off + 3]}});
  }
  for (int i = 0; i < 4; ++i) {
    if (!color_mask_[static_cast<std::size_t>(i)]) continue;
    const float f = src[static_cast<std::size_t>(i)];
    float scaled = config_.quantization == FbQuantization::kFloorPaper
                       ? std::floor(f * 255.0f)
                       : std::floor(f * 255.0f + 0.5f);
    // NaN survives both clamps (every comparison is false) and the
    // float->byte cast of a NaN is undefined; GL leaves the converted value
    // undefined too, so pick the stable choice: 0.
    if (!(scaled >= 0.0f)) scaled = 0.0f;
    (*rt.color)[off + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(std::clamp(scaled, 0.0f, 255.0f));
  }
}

void Context::CheckDrawBudget(ShadeStateCache::WorkerState* w) {
  const std::uint64_t now = w->alu->counts().alu;
  const std::uint64_t delta = now - w->budget_reported;
  w->budget_reported = now;
  const std::uint64_t used =
      draw_alu_used_.fetch_add(delta, std::memory_order_relaxed) + delta;
  if (used > draw_budget_) {
    // Classified here (not in the catch) so the generic trap handler does
    // not have to distinguish watchdog throws from shader traps.
    w->error_kind = DrawErrorKind::kBudget;
    throw glsl::ShaderRuntimeError(kBudgetMsg);
  }
}

void Context::DrawArrays(GLenum mode, GLint first, GLsizei count) {
  if (Recording()) {
    if (record_->DrawArrays(mode, first, count)) return;
    // Unrecordable draw (client arrays the snapshot rules exclude, or a
    // submit-failed queue): drain everything queued ahead of it, then run
    // it inline so error order matches immediate mode.
    record_->NoteInlineSync();
    Sync();
  }
  if (first < 0 || count < 0) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  DrawGeneric(mode, count, [first](GLsizei i) {
    return static_cast<GLuint>(first + i);
  });
}

void Context::DrawElements(GLenum mode, GLsizei count, GLenum type,
                           const void* indices) {
  if (Recording()) {
    if (record_->DrawElements(mode, count, type, indices)) return;
    record_->NoteInlineSync();
    Sync();
  }
  if (count < 0) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  if (type != GL_UNSIGNED_BYTE && type != GL_UNSIGNED_SHORT) {
    SetError(GL_INVALID_ENUM);
    return;
  }
  const std::uint8_t* base = nullptr;
  if (element_array_buffer_ != 0) {
    BufferObject* b = GetBuffer(element_array_buffer_);
    if (b == nullptr) {
      SetError(GL_INVALID_OPERATION);
      return;
    }
    const std::uintptr_t off = reinterpret_cast<std::uintptr_t>(indices);
    const std::size_t esz = type == GL_UNSIGNED_SHORT ? 2 : 1;
    // The whole index range must exist in the store before any index is
    // decoded — the index fetch was the other unchecked read here.
    if (off > b->data.size() ||
        static_cast<std::uint64_t>(static_cast<GLuint>(count)) * esz >
            b->data.size() - off) {
      SetError(GL_INVALID_OPERATION);
      return;
    }
    base = b->data.data() + off;
  } else {
    base = static_cast<const std::uint8_t*>(indices);
  }
  if (base == nullptr) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  DrawGeneric(mode, count, [base, type](GLsizei i) -> GLuint {
    if (type == GL_UNSIGNED_BYTE) return base[i];
    std::uint16_t v;
    std::memcpy(&v, base + i * 2, 2);
    return v;
  });
}

void Context::DrawGeneric(GLenum mode, GLsizei count,
                          const std::function<GLuint(GLsizei)>& index_at) {
  last_draw_error_.clear();
  ProgramObject* prog = GetProgram(current_program_);
  if (prog == nullptr || !prog->link_ok) {
    SetError(GL_INVALID_OPERATION);
    return;
  }
  RenderTarget rt;
  if (!ResolveTarget(&rt)) {
    SetError(GL_INVALID_FRAMEBUFFER_OPERATION);
    return;
  }
  switch (mode) {
    case GL_POINTS: case GL_LINES: case GL_LINE_STRIP: case GL_LINE_LOOP:
    case GL_TRIANGLES: case GL_TRIANGLE_STRIP: case GL_TRIANGLE_FAN:
      break;
    default:
      // Desktop GL_QUADS / GL_POLYGON do not exist here: the paper's
      // limitation #2.
      SetError(GL_INVALID_ENUM);
      return;
  }
  if (count == 0) return;

  // Transactional draw: take a counter snapshot now. Together with the
  // per-worker framebuffer undo journals it restores exact "draw never
  // issued" state on any abort (shader trap, watchdog trip, resource
  // failure) — identically for every engine and worker count, because the
  // restored state does not depend on where shading stopped.
  const glsl::OpCounts draw_start_counts = alu_->counts();

  // --- engine selection: the lane-batched VM is the production path; the
  // scalar VM and the tree-walking interpreter are switchable reference
  // oracles. Under the batched engines both stages run lane-batched
  // (vertices through ShadeVerticesBatched unless vertex_batch is off);
  // the oracle engines keep the scalar per-vertex loop. ---
  const bool use_tree = config_.exec_engine == ExecEngine::kTreeWalk;
  const bool use_vm = !use_tree;
  const bool use_batch = config_.exec_engine == ExecEngine::kBatchedVm;
  const bool batch_vertex = use_batch && vertex_batch_enabled_;

  // --- vertex stage ---
  // Post-transform vertices live in context-owned scratch: resize keeps the
  // outer capacity and surviving elements' varying-vector capacity, so a
  // steady-state draw loop allocates nothing here. Fields a program leaves
  // unwritten are reset below to the RasterVertex defaults a fresh vector
  // would have carried.
  std::vector<RasterVertex>& verts = scratch_verts_;
  verts.resize(static_cast<std::size_t>(count));
  if (batch_vertex
          ? !ShadeVerticesBatched(prog, count, index_at, verts,
                                  draw_start_counts)
          : !ShadeVerticesScalar(prog, use_vm, count, index_at, verts,
                                 draw_start_counts)) {
    return;
  }

  // --- fragment stage: two-phase tiled pipeline (VC4-style) ---
  // Phase 1 binning: assemble primitives (strip/fan/loop orderings resolved
  // here) and bin each into the 64x64 tiles its window bounds touch.
  RasterState rs;
  rs.viewport_x = vp_x_;
  rs.viewport_y = vp_y_;
  rs.viewport_w = vp_w_;
  rs.viewport_h = vp_h_;
  rs.target_w = rt.width;
  rs.target_h = rt.height;
  rs.cull_enabled = cull_enabled_;
  rs.cull_face = cull_face_;
  rs.front_face = front_face_;

  std::vector<TilePrim>& prims = scratch_prims_;
  prims.clear();
  auto tri = [&](GLsizei a, GLsizei b, GLsizei c) {
    prims.push_back({TilePrim::Kind::kTriangle, static_cast<std::uint32_t>(a),
                     static_cast<std::uint32_t>(b),
                     static_cast<std::uint32_t>(c)});
  };
  auto line = [&](GLsizei a, GLsizei b) {
    prims.push_back({TilePrim::Kind::kLine, static_cast<std::uint32_t>(a),
                     static_cast<std::uint32_t>(b), 0});
  };
  switch (mode) {
    case GL_TRIANGLES:
      for (GLsizei i = 0; i + 2 < count; i += 3) tri(i, i + 1, i + 2);
      break;
    case GL_TRIANGLE_STRIP:
      for (GLsizei i = 0; i + 2 < count; ++i) {
        // Winding alternates; swap so face orientation stays consistent.
        const bool odd = (i & 1) != 0;
        tri(i, i + (odd ? 2 : 1), i + (odd ? 1 : 2));
      }
      break;
    case GL_TRIANGLE_FAN:
      for (GLsizei i = 1; i + 1 < count; ++i) tri(0, i, i + 1);
      break;
    case GL_POINTS:
      for (GLsizei i = 0; i < count; ++i) {
        prims.push_back(
            {TilePrim::Kind::kPoint, static_cast<std::uint32_t>(i), 0, 0});
      }
      break;
    case GL_LINES:
      for (GLsizei i = 0; i + 1 < count; i += 2) line(i, i + 1);
      break;
    case GL_LINE_STRIP:
      for (GLsizei i = 0; i + 1 < count; ++i) line(i, i + 1);
      break;
    case GL_LINE_LOOP:
      for (GLsizei i = 0; i + 1 < count; ++i) line(i, i + 1);
      if (count > 2) line(count - 1, 0);
      break;
    default:
      break;
  }

  // Summed primitive bounding-box areas: the fragment count the row-band
  // gate (PlanRowBands) estimates a draw's work from.
  std::uint64_t bounds_area = 0;
  try {
    binner_.BeginDraw(rt.width, rt.height);
    for (std::size_t pi = 0; pi < prims.size(); ++pi) {
      const TilePrim& p = prims[pi];
      PixelRect r;
      const bool live = PrimBounds(p, verts, rs, &r);
      if (live) {
        bounds_area += static_cast<std::uint64_t>(r.x1 - r.x0) *
                       static_cast<std::uint64_t>(r.y1 - r.y0);
      }
      if (p.kind == TilePrim::Kind::kLine) {
        // Lines bin tile-exactly by walking once (their bbox would cover
        // quadratically many untouched tiles for diagonals).
        LineTouchedTiles(verts[p.v0], verts[p.v1], rs, kTileSize,
                         [&](int tx, int ty) {
                           binner_.BinTile(static_cast<std::uint32_t>(pi),
                                           tx, ty);
                         });
      } else if (live) {
        binner_.Bin(static_cast<std::uint32_t>(pi), r);
      }
    }
    binner_.NonEmptyTiles(&scratch_work_);
  } catch (const std::bad_alloc&) {
    // Allocation failure (injectable: fault::Site::kBinnerGrow) while
    // binning: nothing has touched the framebuffer yet, so restoring the
    // counter snapshot makes the abort a pure no-op draw.
    alu_->SetCounts(draw_start_counts);
    last_draw_error_ = "tile binner allocation failed";
    reset_status_ = GL_INNOCENT_CONTEXT_RESET;
    SetError(GL_OUT_OF_MEMORY);
    return;
  }
  const std::vector<std::uint32_t>& work = scratch_work_;
  if (work.empty()) return;

  // Phase 2 shading: each worker owns a private engine, ALU-counter shard
  // and TMU-cache model and claims work items — whole tiles, or row bands
  // of them (below) — that partition the framebuffer, so pixel writes are
  // lock-free and results are byte-identical for any worker count (counter
  // shards merge by summation at join). All per-draw plumbing — sinks/
  // flushes, slot pointers, texture callbacks, batch scratch — is cached in
  // ShadeStateCache worker slots and merely *refreshed* here, so a
  // steady-state draw allocates nothing.

  // <= 0 selects one worker per hardware thread; a hard cap keeps a bogus
  // huge knob value from spawning thousands of OS threads (or throwing
  // out of a GL entry point).
  constexpr int kMaxShaderThreads = 256;
  int threads = config_.shader_threads;
  if (threads <= 0) threads = common::DefaultThreadCount();
  threads = std::min(threads, kMaxShaderThreads);

  // Row bands: a heavy draw with fewer non-empty tiles than workers (the
  // GPGPU case: one kernel dispatch into a single 64x64 tile) would leave
  // the pool parked, so its tiles are cut into full-width row bands.
  // Full-width rows only: the rasterizer evaluates edge functions exactly
  // at each row anchor and steps them from the bounding box's left edge,
  // so a row clip keeps coverage and varyings bit-identical where a column
  // clip would not.
  bool band_split = false;
  ShadeStateCache::Entry* entry = nullptr;
  int slot_count = 1;
  try {
    band_split = use_vm && threads > 1 &&
                 static_cast<int>(work.size()) < threads &&
                 PlanRowBands(*prog, threads, work, bounds_area, prims, verts,
                              rs);
    const int workers = std::min(
        threads, static_cast<int>(band_split ? band_items_.size()
                                             : work.size()));
    if (workers > 1 && use_vm) {
      // Parallel shading needs per-worker engine clones (bytecode VM only)
      // and per-worker counter shards (forkable AluModel only). Entries grow
      // lazily to the largest `workers` any draw has needed (never past
      // `threads`), so a 2-tile first draw on a big pool builds 2 slots, not
      // `threads` — and a freshly built slot is already current (the clone
      // copies today's globals), so only pre-existing slots pay the re-sync.
      auto build_worker = [&](std::unique_ptr<glsl::AluModel> shard) {
        // Injectable build failure: slot construction is the allocation-
        // heavy part of a draw (VM clone with a full global-store copy).
        if (fault::ShouldFail(fault::Site::kShadeCacheAlloc)) {
          throw std::bad_alloc();
        }
        auto w = std::make_unique<ShadeStateCache::WorkerState>();
        w->alu_owned = std::move(shard);
        w->engine_owned =
            std::make_unique<glsl::VmExec>(*prog->fvm, *w->alu_owned);
        w->tmu_owned = std::make_unique<TmuCacheModel>();
        w->engine = w->engine_owned.get();
        w->vm = w->engine_owned.get();
        w->alu = w->alu_owned.get();
        w->tmu = w->tmu_owned.get();
        BuildWorkerPlumbing(*w, prog);
        return w;
      };
      entry = shade_cache_.Find(current_program_, threads);
      if (entry != nullptr) {
        const int have =
            std::min(workers, static_cast<int>(entry->workers.size()));
        for (int i = 0; i < have; ++i) {
          ShadeStateCache::WorkerState& w =
              *entry->workers[static_cast<std::size_t>(i)];
          w.vm->SyncGlobalsFrom(*prog->fvm);
          w.alu->ResetCounts();
        }
      } else {
        // A miss is only usable when the ALU model forks; probe with the
        // first shard so non-forkable models never create an entry.
        std::unique_ptr<glsl::AluModel> first = alu_->Fork();
        if (first != nullptr) {
          entry = &shade_cache_.Insert(current_program_, threads);
          entry->workers.reserve(static_cast<std::size_t>(workers));
          entry->workers.push_back(build_worker(std::move(first)));
        }
      }
      if (entry != nullptr) {
        while (static_cast<int>(entry->workers.size()) < workers) {
          entry->workers.push_back(build_worker(alu_->Fork()));
        }
        slot_count = workers;
      }
    }
    if (entry == nullptr) {
      // Serial path (a single light tile, threads == 1, the tree oracle, or
      // a non-forkable ALU model): one cached slot that borrows the program's
      // own engine, the context's ALU model (counts land there directly, no
      // merge) and the context-owned serial TMU cache.
      slot_count = 1;
      entry = shade_cache_.Find(current_program_, 1);
      if (entry == nullptr) {
        if (fault::ShouldFail(fault::Site::kShadeCacheAlloc)) {
          throw std::bad_alloc();
        }
        entry = &shade_cache_.Insert(current_program_, 1);
        auto w = std::make_unique<ShadeStateCache::WorkerState>();
        w->engine = use_vm
                        ? static_cast<glsl::ShaderEngine*>(prog->fvm.get())
                        : prog->fexec.get();
        w->vm = use_vm ? prog->fvm.get() : nullptr;
        w->alu = alu_;
        w->tmu = &serial_tmu_cache_;
        BuildWorkerPlumbing(*w, prog);
        entry->workers.push_back(std::move(w));
      }
    }
  } catch (const std::bad_alloc&) {
    // Allocation failure (injectable: fault::Site::kShadeCacheAlloc) while
    // building shading state: a partially built cache entry pins
    // inconsistent state, so drop the program's entries — the next draw
    // rebuilds from scratch. No framebuffer byte was touched yet.
    shade_cache_.InvalidateProgram(current_program_);
    alu_->SetCounts(draw_start_counts);
    last_draw_error_ = "shading-state allocation failed";
    reset_status_ = GL_INNOCENT_CONTEXT_RESET;
    SetError(GL_OUT_OF_MEMORY);
    return;
  }
  // Bands need worker slots; a non-forkable ALU model shades serially.
  band_split = band_split && slot_count > 1;
  if (band_split) ++band_split_draws_;

  // Per-draw refresh of the state the cached closures reach through stable
  // addresses: the resolved render target, the failure latch, the watchdog
  // accumulator (seeded with the vertex stage's ops), and each used slot's
  // error/journal/batch scratch (stale only if a previous draw failed).
  draw_rt_ = rt;
  draw_failed_.store(false, std::memory_order_relaxed);
  draw_alu_used_.store(alu_->counts().alu - draw_start_counts.alu,
                       std::memory_order_relaxed);
  // Journal framebuffer writes only when this draw can actually abort
  // after a pixel lands: the fragment stage has trap-capable instructions,
  // the per-draw watchdog is armed, or a fault site is armed. Otherwise
  // the transactional-abort guarantee is vacuous and the hot path skips
  // the per-pixel undo bookkeeping entirely. (A genuine std::bad_alloc
  // mid-shading is the one abort this cannot cover; the injectable
  // resource faults all arm the registry and therefore journal.)
  const bool needs_journal =
      prog->fs_can_trap || draw_budget_ != 0 || fault::AnyArmed();
  for (int i = 0; i < slot_count; ++i) {
    ShadeStateCache::WorkerState& w =
        *entry->workers[static_cast<std::size_t>(i)];
    w.error.clear();
    w.error_kind = DrawErrorKind::kNone;
    w.journal.Clear();
    w.active_journal = needs_journal ? &w.journal : nullptr;
    w.budget_reported = w.alu->counts().alu;
    w.batch.count = 0;
    w.batch.width = config_.fragment_batch_width;
    w.band_log = nullptr;
    w.lanes_tagged = 0;
  }

  const int vc = prog->varying_cells;
  // Shades one work item: tile `tile_index`, restricted to rows [y0, y1)
  // and logging texture-cache lines into `log` when it is a row band.
  auto shade_tile = [&](std::uint32_t tile_index, int y0, int y1,
                        BandTmuLog* log, int slot_index) {
    ShadeStateCache::WorkerState& w =
        *entry->workers[static_cast<std::size_t>(slot_index)];
    const TileBinner::Tile& tile = binner_.tile(tile_index);
    if (log == nullptr) w.tmu->Reset();
    w.band_log = log;
    RasterState tile_rs = rs;
    tile_rs.clip_x0 = tile.rect.x0;
    tile_rs.clip_y0 = y0;
    tile_rs.clip_x1 = tile.rect.x1;
    tile_rs.clip_y1 = y1;
    for (const std::uint32_t pi : tile.prims) {
      const TilePrim& p = prims[pi];
      if (log != nullptr) {
        // Lanes appended so far belong to the previous primitive.
        for (int l = w.lanes_tagged; l < w.batch.count; ++l) {
          w.lane_prim[static_cast<std::size_t>(l)] = w.band_prim;
        }
        w.lanes_tagged = w.batch.count;
        w.band_prim = pi;
      }
      if (use_batch) {
        switch (p.kind) {
          case TilePrim::Kind::kTriangle:
            RasterizeTriangle(verts[p.v0], verts[p.v1], verts[p.v2], vc,
                              tile_rs, w.batch, w.flush);
            break;
          case TilePrim::Kind::kPoint:
            RasterizePoint(verts[p.v0], vc, tile_rs, w.batch, w.flush);
            break;
          case TilePrim::Kind::kLine:
            RasterizeLine(verts[p.v0], verts[p.v1], vc, tile_rs, w.batch,
                          w.flush);
            break;
        }
      } else {
        switch (p.kind) {
          case TilePrim::Kind::kTriangle:
            RasterizeTriangle(verts[p.v0], verts[p.v1], verts[p.v2], vc,
                              tile_rs, w.sink);
            break;
          case TilePrim::Kind::kPoint:
            RasterizePoint(verts[p.v0], vc, tile_rs, w.sink);
            break;
          case TilePrim::Kind::kLine:
            RasterizeLine(verts[p.v0], verts[p.v1], vc, tile_rs, w.sink);
            break;
        }
      }
    }
    // Shade the batch tail before leaving the item: the next tile resets
    // the TMU-cache model, and deferred TMU replay must land in this
    // tile's cache session (or this band's log).
    if (use_batch) w.flush();
  };
  const auto shade_item = [&](int item, int slot_index) {
    const std::size_t i = static_cast<std::size_t>(item);
    if (band_split) {
      const BandItem& b = band_items_[i];
      shade_tile(b.tile, b.y0, b.y1, &band_logs_[i], slot_index);
    } else {
      const TileBinner::Tile& tile = binner_.tile(work[i]);
      shade_tile(work[i], tile.rect.y0, tile.rect.y1, nullptr, slot_index);
    }
  };

  // A failure outside any worker's shader (allocation mid-shading, a pool
  // task dying before it ran): recorded draw-wide and classified as an
  // implementation fault, not a shader fault.
  std::string infra_error;
  DrawErrorKind infra_error_kind = DrawErrorKind::kNone;
  if (slot_count == 1) {
    try {
      for (int i = 0; i < static_cast<int>(work.size()); ++i) {
        shade_item(i, 0);
      }
    } catch (const std::exception& e) {
      // Shader traps are caught inside the sink/flush closures; anything
      // reaching here is a resource failure of the pipeline itself.
      infra_error = e.what();
      infra_error_kind = DrawErrorKind::kResource;
      draw_failed_.store(true, std::memory_order_relaxed);
    }
  } else {
    // The pool is sized by the configured thread count, not by this draw's
    // slot count, so alternating draws with different tile counts reuse the
    // parked workers instead of respawning threads every draw. Partial
    // dispatch: only one pool task per shading slot is issued, so a draw
    // covering two tiles wakes two workers, not the whole pool.
    if (pool_ == nullptr || pool_->size() != threads) {
      pool_ = std::make_unique<common::ThreadPool>(threads);
    }
    const int item_count = static_cast<int>(
        band_split ? band_items_.size() : work.size());
    std::atomic<int> next_item{0};
    try {
      pool_->RunOn(slot_count, [&](int slot_index) {
        // An exception escaping a pool worker's body is captured by the
        // pool and rethrown from RunOn; catch shading failures here so
        // they are attributed to the right worker slot instead.
        ShadeStateCache::WorkerState& w =
            *entry->workers[static_cast<std::size_t>(slot_index)];
        try {
          for (int item = next_item.fetch_add(1, std::memory_order_relaxed);
               item < item_count;
               item = next_item.fetch_add(1, std::memory_order_relaxed)) {
            shade_item(item, slot_index);
          }
        } catch (const glsl::ShaderRuntimeError& e) {
          w.error = e.what();
          if (w.error_kind == DrawErrorKind::kNone) {
            w.error_kind = DrawErrorKind::kTrap;
          }
          draw_failed_.store(true, std::memory_order_relaxed);
        } catch (const std::exception& e) {
          w.error = e.what();
          if (w.error_kind == DrawErrorKind::kNone) {
            w.error_kind = DrawErrorKind::kResource;
          }
          draw_failed_.store(true, std::memory_order_relaxed);
        }
      });
    } catch (const std::exception& e) {
      // A pool task failed before its body ran (injectable:
      // fault::Site::kPoolTask). The join completed — every other worker
      // finished — so the abort below sees a quiesced, consistent state.
      infra_error = e.what();
      infra_error_kind = DrawErrorKind::kResource;
      draw_failed_.store(true, std::memory_order_relaxed);
    }
    if (!draw_failed_.load(std::memory_order_relaxed)) {
      // Merge the per-worker counter shards only on success: a trapped
      // draw discards them, and the snapshot restore below is what makes
      // the counters read "never issued".
      for (int i = 0; i < slot_count; ++i) {
        alu_->AddCounts(
            entry->workers[static_cast<std::size_t>(i)]->alu->counts());
      }
      // Band items logged their texture-cache lines instead of touching a
      // cache model; the per-tile replay yields the serial path's misses.
      if (band_split) {
        glsl::OpCounts misses;
        misses.tmu_miss = ReplayBandTmu();
        alu_->AddCounts(misses);
      }
    }
  }

  if (draw_failed_.load(std::memory_order_relaxed)) {
    // Deterministic draw abort: reverse-replay every worker's undo journal
    // (workers shade disjoint tiles or bands, so cross-worker order is
    // irrelevant; within a worker, reverse order unwinds repeated writes to
    // one pixel correctly) and restore the counter snapshot. The post-abort
    // framebuffer, depth plane and counters equal the pre-draw state byte
    // for byte on every engine, batch width and worker count.
    for (int i = 0; i < slot_count; ++i) {
      ShadeStateCache::WorkerState& w =
          *entry->workers[static_cast<std::size_t>(i)];
      if (rt.color != nullptr) {
        for (auto it = w.journal.color.rbegin(); it != w.journal.color.rend();
             ++it) {
          std::copy(it->old_rgba.begin(), it->old_rgba.end(),
                    rt.color->begin() + it->offset);
        }
      }
      if (rt.depth != nullptr) {
        for (auto it = w.journal.depth.rbegin(); it != w.journal.depth.rend();
             ++it) {
          (*rt.depth)[it->index] = it->old_depth;
        }
      }
      w.journal.Clear();
    }
    alu_->SetCounts(draw_start_counts);
    last_draw_error_ = infra_error;
    DrawErrorKind kind = infra_error_kind;
    for (int i = 0; i < slot_count; ++i) {
      const ShadeStateCache::WorkerState& w =
          *entry->workers[static_cast<std::size_t>(i)];
      if (!w.error.empty()) {
        last_draw_error_ = w.error;
        kind = w.error_kind;
        break;
      }
    }
    if (kind == DrawErrorKind::kNone) kind = DrawErrorKind::kTrap;
    reset_status_ = kind == DrawErrorKind::kResource
                        ? GL_INNOCENT_CONTEXT_RESET
                        : GL_GUILTY_CONTEXT_RESET;
    SetError(kind == DrawErrorKind::kTrap ? GL_INVALID_OPERATION
                                          : GL_OUT_OF_MEMORY);
    return;
  }
  // Committed: the journals exist only to be replayed on abort.
  for (int i = 0; i < slot_count; ++i) {
    entry->workers[static_cast<std::size_t>(i)]->journal.Clear();
  }
}

bool Context::PlanRowBands(const ProgramObject& prog, int threads,
                           const std::vector<std::uint32_t>& work,
                           std::uint64_t bounds_area,
                           const std::vector<TilePrim>& prims,
                           const std::vector<RasterVertex>& verts,
                           const RasterState& rs) {
  // Estimated fragment work: every primitive may cover its whole bounding
  // box, each fragment at the static cost bound. Tested as
  // cost * area > kBandSplitMinWork, without the overflow:
  const std::uint64_t cost = prog.fs_bytecode->static_cost;
  if (bounds_area == 0 || cost <= kBandSplitMinWork / bounds_area) {
    return false;
  }
  // Band logs store 29-bit cache lines: at most 2^32 texels per texture.
  for (const TextureUnit& u : units_) {
    const Texture* tex = LookupTexture(u.bound_2d);
    if (tex != nullptr && static_cast<std::uint64_t>(tex->width()) *
                                  static_cast<std::uint64_t>(tex->height()) >
                              (std::uint64_t{1} << 32)) {
      return false;
    }
  }
  // The join replays bands in each primitive's row order, so every
  // primitive must emit its rows monotonically.
  band_row_order_.resize(prims.size());
  for (const std::uint32_t t : work) {
    for (const std::uint32_t pi : binner_.tile(t).prims) {
      const TilePrim& p = prims[pi];
      int order = 1;
      if (p.kind == TilePrim::Kind::kTriangle) {
        order = TriangleRowOrder(verts[p.v0], verts[p.v1], verts[p.v2]);
      } else if (p.kind == TilePrim::Kind::kLine) {
        order = LineRowOrder(verts[p.v0], verts[p.v1], rs);
      }
      if (order == 0) return false;
      band_row_order_[pi] = static_cast<std::int8_t>(order);
    }
  }
  // Cut each tile's covered rows into equal bands. The outer bands reach
  // the tile edges, so the bands partition the tile whatever the bounds.
  const int tiles = static_cast<int>(work.size());
  const int per_tile = (kBandItemsPerWorker * threads + tiles - 1) / tiles;
  band_items_.clear();
  for (const std::uint32_t t : work) {
    const TileBinner::Tile& tile = binner_.tile(t);
    int y0 = tile.rect.y1;
    int y1 = tile.rect.y0;
    for (const std::uint32_t pi : tile.prims) {
      PixelRect r;
      if (!PrimBounds(prims[pi], verts, rs, &r)) continue;
      y0 = std::min(y0, std::max(r.y0, tile.rect.y0));
      y1 = std::max(y1, std::min(r.y1, tile.rect.y1));
    }
    if (y0 >= y1) {
      y0 = tile.rect.y0;
      y1 = tile.rect.y1;
    }
    const int rows = y1 - y0;
    const int bands = std::min(per_tile, rows);
    for (int k = 0; k < bands; ++k) {
      band_items_.push_back(
          {t, k == 0 ? tile.rect.y0 : y0 + rows * k / bands,
           k == bands - 1 ? tile.rect.y1 : y0 + rows * (k + 1) / bands});
    }
  }
  if (band_items_.size() < 2) return false;
  if (band_logs_.size() < band_items_.size()) {
    band_logs_.resize(band_items_.size());
  }
  for (std::size_t i = 0; i < band_items_.size(); ++i) band_logs_[i].Clear();
  return true;
}

std::uint64_t Context::ReplayBandTmu() {
  // Entries carry the texture unit; the bindings are those of the draw.
  std::array<std::uint64_t, std::tuple_size_v<decltype(units_)>> tags{};
  for (std::size_t u = 0; u < units_.size(); ++u) {
    tags[u] = static_cast<std::uint64_t>(units_[u].bound_2d) << 40;
  }
  constexpr std::uint32_t kLineMask =
      (std::uint32_t{1} << BandTmuLog::kLineBits) - 1;
  TmuCacheModel cache;
  std::uint64_t misses = 0;
  // A tile's bands are consecutive items, lowest rows first.
  const std::size_t n = band_items_.size();
  for (std::size_t first = 0, last = 0; first < n; first = last) {
    const std::uint32_t t = band_items_[first].tile;
    while (last < n && band_items_[last].tile == t) ++last;
    cache.Reset();
    for (const std::uint32_t pi : binner_.tile(t).prims) {
      const bool ascending = band_row_order_[pi] > 0;
      for (std::size_t k = 0; k < last - first; ++k) {
        BandTmuLog& log = band_logs_[ascending ? first + k : last - 1 - k];
        if (log.replayed == log.segments.size() ||
            log.segments[log.replayed].prim != pi) {
          continue;  // no texture fetch of this primitive in this band
        }
        const BandTmuLog::Segment& seg = log.segments[log.replayed++];
        for (std::uint32_t e = seg.begin; e < seg.end; ++e) {
          const std::uint32_t v = log.entries[e];
          if (cache.Access(tags[v >> BandTmuLog::kLineBits] |
                           (v & kLineMask))) {
            ++misses;
          }
        }
      }
    }
  }
  return misses;
}

void Context::BuildWorkerPlumbing(ShadeStateCache::WorkerState& w,
                                  ProgramObject* prog) {
  const bool use_batch =
      config_.exec_engine == ExecEngine::kBatchedVm && w.vm != nullptr;
  ShadeStateCache::WorkerState* const wp = &w;
  const int color_slot = prog->uses_frag_data ? prog->fs_frag_data_slot
                                              : prog->fs_frag_color_slot;

  if (!use_batch) {
    // Scalar engines: one Run() per fragment through a cached sink.
    // Resolving the engine's per-fragment input/output slots through the
    // virtual GlobalAt per fragment is measurable on tiny kernels; global
    // storage is stable for the life of the entry, so resolve them once.
    w.engine->SetTextureFn(MakeTextureFn(&w));
    glsl::ShaderEngine& eng = *w.engine;
    Value* const fc_v = prog->fs_frag_coord_slot >= 0
                            ? &eng.GlobalAt(prog->fs_frag_coord_slot)
                            : nullptr;
    Value* const ff_v = prog->fs_front_facing_slot >= 0
                            ? &eng.GlobalAt(prog->fs_front_facing_slot)
                            : nullptr;
    Value* const pc_v = prog->fs_point_coord_slot >= 0
                            ? &eng.GlobalAt(prog->fs_point_coord_slot)
                            : nullptr;
    const Value* const color_v =
        color_slot >= 0 ? &eng.GlobalAt(color_slot) : nullptr;
    struct VaryingDst {
      Value* value;
      int cells;
      int offset;
    };
    std::vector<VaryingDst> varying_dsts;
    varying_dsts.reserve(prog->varyings.size());
    for (const VaryingLink& link : prog->varyings) {
      varying_dsts.push_back(
          {&eng.GlobalAt(link.fs_slot), link.cells, link.offset});
    }
    w.flush = nullptr;
    w.sink = [this, wp, fc_v, ff_v, pc_v, color_v,
              varying_dsts = std::move(varying_dsts)](
                 int x, int y, float depth, const float* vars, bool front,
                 float ps, float pt) {
      if (draw_failed_.load(std::memory_order_relaxed)) return;
      try {
        if (fc_v != nullptr) {
          fc_v->SetF(0, static_cast<float>(x) + 0.5f);
          fc_v->SetF(1, static_cast<float>(y) + 0.5f);
          fc_v->SetF(2, depth);
          fc_v->SetF(3, 1.0f);
        }
        if (ff_v != nullptr) ff_v->SetB(0, front);
        if (pc_v != nullptr) {
          pc_v->SetF(0, ps);
          pc_v->SetF(1, pt);
        }
        for (const VaryingDst& vd : varying_dsts) {
          for (int c = 0; c < vd.cells; ++c) {
            vd.value->SetF(c, vars[vd.offset + c]);
          }
        }
        const bool kept = wp->engine->Run();
        if (draw_budget_ != 0) CheckDrawBudget(wp);
        if (!kept) return;  // discarded
        std::array<float, 4> color{0.0f, 0.0f, 0.0f, 0.0f};
        if (color_v != nullptr) {
          color = {color_v->F(0), color_v->F(1), color_v->F(2),
                   color_v->F(3)};
        }
        WritePixel(draw_rt_, x, y, depth, color, /*depth_valid=*/true,
                   wp->active_journal);
      } catch (const glsl::ShaderRuntimeError& e) {
        wp->error = e.what();
        if (wp->error_kind == DrawErrorKind::kNone) {
          wp->error_kind = DrawErrorKind::kTrap;
        }
        draw_failed_.store(true, std::memory_order_relaxed);
      }
    };
    return;
  }

  // Batched engine: the rasterizer appends covered fragments into the
  // worker's SoA batch; the flush copies its rows into the VM's lane-major
  // global planes, runs the whole batch through one instruction-stream
  // pass, replays the deferred TMU accesses in lane order (reproducing the
  // scalar engine's fragment-sequential texture-cache order), and drains
  // surviving lanes to the framebuffer in emission order.
  w.engine->SetTextureFn(MakeBatchTextureFn(wp));
  glsl::VmExec& vm = *w.vm;
  // Plane views of the per-fragment globals (a null base when the shader
  // never declares one): the flush writes inputs and reads gl_FragColor
  // straight from the planes, cell c of lane l at view.at(c, l).
  const auto plane = [&vm](int slot) {
    return slot >= 0 ? vm.LanePlane(slot) : glsl::BatchDst{};
  };
  const glsl::BatchDst fc = plane(prog->fs_frag_coord_slot);
  const glsl::BatchDst ff = plane(prog->fs_front_facing_slot);
  const glsl::BatchDst pc = plane(prog->fs_point_coord_slot);
  const glsl::BatchDst col = plane(color_slot);
  struct LaneVaryingDst {
    glsl::BatchDst value;
    int cells;
    int offset;
  };
  std::vector<LaneVaryingDst> varying_dsts;
  varying_dsts.reserve(prog->varyings.size());
  for (const VaryingLink& link : prog->varyings) {
    LaneVaryingDst d;
    d.value = plane(link.fs_slot);
    d.cells = link.cells;
    d.offset = link.offset;
    varying_dsts.push_back(d);
  }
  w.sink = nullptr;
  w.flush = [this, wp, fc, ff, pc, col,
             varying_dsts = std::move(varying_dsts)]() {
    FragmentBatch& b = wp->batch;
    const int n = b.count;
    b.count = 0;
    if (wp->band_log != nullptr) {
      // Lanes since the last primitive switch belong to the current one.
      for (int l = wp->lanes_tagged; l < n; ++l) {
        wp->lane_prim[static_cast<std::size_t>(l)] = wp->band_prim;
      }
      wp->lanes_tagged = 0;
    }
    if (n == 0) return;
    const auto drop_tmu_log = [wp, n] {
      for (int l = 0; l < n; ++l) {
        wp->tmu_log[static_cast<std::size_t>(l)].clear();
      }
    };
    if (draw_failed_.load(std::memory_order_relaxed)) {
      drop_tmu_log();
      return;
    }
    try {
      if (fc.base != nullptr) {
        for (int l = 0; l < n; ++l) {
          const std::size_t li = static_cast<std::size_t>(l);
          fc.at(0, l).f = static_cast<float>(b.x[li]) + 0.5f;
          fc.at(1, l).f = static_cast<float>(b.y[li]) + 0.5f;
          fc.at(2, l).f = b.depth[li];
          fc.at(3, l).f = 1.0f;
        }
      }
      if (ff.base != nullptr) {
        for (int l = 0; l < n; ++l) {
          ff.at(0, l).i = b.front[static_cast<std::size_t>(l)] != 0 ? 1 : 0;
        }
      }
      if (pc.base != nullptr) {
        for (int l = 0; l < n; ++l) {
          pc.at(0, l).f = b.point_s[static_cast<std::size_t>(l)];
          pc.at(1, l).f = b.point_t[static_cast<std::size_t>(l)];
        }
      }
      // Varyings arrive cell-major (cell c's lanes contiguous), the planes'
      // own layout: one row per cell.
      for (const LaneVaryingDst& vd : varying_dsts) {
        for (int c = 0; c < vd.cells; ++c) {
          const float* src =
              &b.varyings[static_cast<std::size_t>(vd.offset + c) *
                          kFragBatchWidth];
          for (int l = 0; l < n; ++l) vd.value.at(c, l).f = src[l];
        }
      }
      const std::uint32_t kept = wp->vm->RunBatch(n);
      if (draw_budget_ != 0) CheckDrawBudget(wp);
      // Deferred TMU accounting: lane order == the order the scalar engine
      // would have run these fragments, so modeled miss counts match. A
      // band item files the lines under each lane's primitive instead, for
      // the per-tile replay at join.
      for (int l = 0; l < n; ++l) {
        const std::size_t li = static_cast<std::size_t>(l);
        std::vector<std::uint64_t>& log = wp->tmu_log[li];
        if (wp->band_log != nullptr) {
          for (const std::uint64_t entry : log) {
            wp->band_log->Append(wp->lane_prim[li],
                                 static_cast<std::uint32_t>(entry));
          }
        } else {
          for (const std::uint64_t line : log) {
            if (wp->tmu->Access(line)) wp->alu->CountTmuMiss(1);
          }
        }
        log.clear();
      }
      for (int l = 0; l < n; ++l) {
        if (((kept >> static_cast<unsigned>(l)) & 1u) == 0) continue;
        const std::size_t li = static_cast<std::size_t>(l);
        std::array<float, 4> color{0.0f, 0.0f, 0.0f, 0.0f};
        if (col.base != nullptr) {
          color = {col.at(0, l).f, col.at(1, l).f, col.at(2, l).f,
                   col.at(3, l).f};
        }
        WritePixel(draw_rt_, b.x[li], b.y[li], b.depth[li], color,
                   /*depth_valid=*/true, wp->active_journal);
      }
    } catch (const glsl::ShaderRuntimeError& e) {
      wp->error = e.what();
      if (wp->error_kind == DrawErrorKind::kNone) {
        wp->error_kind = DrawErrorKind::kTrap;
      }
      draw_failed_.store(true, std::memory_order_relaxed);
      drop_tmu_log();
    }
  };
}

glsl::TextureFn Context::MakeTextureFn(ShadeStateCache::WorkerState* w) {
  return [this, w](int unit, float s, float t,
                   float lod) -> std::array<float, 4> {
    if (unit < 0 || unit >= static_cast<int>(units_.size())) {
      return {0.0f, 0.0f, 0.0f, 1.0f};
    }
    const GLuint tex_id = units_[static_cast<std::size_t>(unit)].bound_2d;
    Texture* tex = LookupTexture(tex_id);
    if (tex == nullptr) return {0.0f, 0.0f, 0.0f, 1.0f};
    // Texture-cache model: 32-byte lines = 8 RGBA8 texels.
    const long long texel = tex->NearestTexelIndex(s, t);
    if (texel >= 0 && w->band_log != nullptr) {
      w->band_log->Append(w->band_prim, BandTmuLog::Entry(unit, texel));
    } else if (texel >= 0) {
      const std::uint64_t line = (static_cast<std::uint64_t>(tex_id) << 40) |
                                 static_cast<std::uint64_t>(texel >> 3);
      if (w->tmu->Access(line)) w->alu->CountTmuMiss(1);
    }
    return tex->Sample(s, t, lod);
  };
}

glsl::TextureFn Context::MakeBatchTextureFn(
    ShadeStateCache::WorkerState* w) {
  // The batched executor interleaves lanes within each instruction, so
  // touching the cache model here would see an instruction-major access
  // order; the scalar engine's order is fragment-major. Sampling is
  // order-independent (contents are immutable during a draw) and happens
  // immediately; the cache-line touch is logged per lane and replayed in
  // lane order by the flush.
  const int* const lane = w->vm->CurrentLanePtr();
  return [this, w, lane](int unit, float s, float t,
                         float lod) -> std::array<float, 4> {
    if (unit < 0 || unit >= static_cast<int>(units_.size())) {
      return {0.0f, 0.0f, 0.0f, 1.0f};
    }
    const GLuint tex_id = units_[static_cast<std::size_t>(unit)].bound_2d;
    Texture* tex = LookupTexture(tex_id);
    if (tex == nullptr) return {0.0f, 0.0f, 0.0f, 1.0f};
    const long long texel = tex->NearestTexelIndex(s, t);
    if (texel >= 0) {
      const std::uint64_t line =
          w->band_log != nullptr
              ? BandTmuLog::Entry(unit, texel)
              : (static_cast<std::uint64_t>(tex_id) << 40) |
                    static_cast<std::uint64_t>(texel >> 3);
      w->tmu_log[static_cast<std::size_t>(*lane)].push_back(line);
    }
    return tex->Sample(s, t, lod);
  };
}

}  // namespace mgpu::gles2
