//===- native/Context.cpp - Native-execution analysis context -------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "native/Context.h"

#include "native/Kernel.h"
#include "support/Format.h"
#include "support/Trace.h"

#include <cassert>
#include <cstring>

using namespace herbgrind;
using namespace herbgrind::native;

//===----------------------------------------------------------------------===//
// Construction and activation
//===----------------------------------------------------------------------===//

/// The activation list: an intrusive stack of entries embedded in the
/// objects that create them (context construction, run() frames), so a
/// context destroyed at ANY depth -- the engine replaces worker contexts
/// in place; a kernel may drop one mid-run -- just unlinks its entries
/// and active() can never dangle, whatever the destruction order. The
/// thread-local head is a raw pointer, i.e. trivially destructible:
/// worker threads destroy their thread_local analyzer contexts during
/// TLS teardown, after any nontrivial thread_local here would already be
/// gone. No storage, no allocation, no depth limit.
thread_local Context::ActivationLink *Context::ActiveHead = nullptr;

/// The location of unmarked code (and of every context until its first
/// HG_LOC / setLoc); a static so it can key the slot cache like the
/// macro's per-callsite statics.
static const SourceLoc UnknownLoc;

Context *Context::active() {
  // Entries whose context died before their frame popped carry null.
  for (ActivationLink *L = ActiveHead; L; L = L->Next)
    if (L->Ctx)
      return L->Ctx;
  return nullptr;
}

void Context::pushLink(ActivationLink &L) {
  L.Next = ActiveHead;
  ActiveHead = &L;
}

void Context::unlink(ActivationLink &L) {
  for (ActivationLink **P = &ActiveHead; *P; P = &(*P)->Next)
    if (*P == &L) {
      *P = L.Next;
      return;
    }
}

Context::Activation::Activation(Context &C) {
  Link.Ctx = &C;
  pushLink(Link);
}

Context::Activation::~Activation() { unlink(Link); }

Context::Context(AnalysisConfig Config) : Analyzer(Config, /*NumTemps=*/0) {
  CurLoc = &UnknownLoc;
  Slots = slotsFor(&UnknownLoc);
  // Construction activates: `native::Context C;` at the top of a scope is
  // all standalone code needs for Real's operators to find their context.
  SelfLink.Ctx = this;
  pushLink(SelfLink);
}

Context::~Context() {
  unlink(SelfLink);
  // Activation frames for this context that are still on the list (the
  // context died inside its own run()) keep their embedded entries;
  // clearing their Ctx makes active() skip them until the frame unlinks
  // itself.
  for (ActivationLink *L = ActiveHead; L; L = L->Next)
    if (L->Ctx == this)
      L->Ctx = nullptr;
  assert(Shadow.liveValues() == 0 &&
         "native::Real values outlived their Context");
}

void Context::reset() {
  assert(Shadow.liveValues() == 0 &&
         "native::Real values alive across Context::reset()");
  Analyzer::reset();
  // The site tables survive on purpose: site ids are content-derived, so
  // reuse cannot change results, only skip re-interning. The *current
  // location* must not survive: a fresh context stamps pre-HG_LOC
  // operations with the unknown location, and a reset one has to do
  // exactly the same or its records would key differently (breaking
  // --jobs byte-identity).
  CurLoc = &UnknownLoc;
  Slots = slotsFor(&UnknownLoc);
  Inputs = nullptr; // a fresh context has no bound tuple; neither may we
  NumInputs = 0;
  SpotOps = 0;
}

ContextStats Context::stats() const {
  ContextStats St;
  St.ShadowOpsExecuted = ShadowOps;
  St.SpotsExecuted = SpotOps;
  St.InternedSites = SiteKeys.size();
  St.SiteCollisions = Collisions;
  St.TraceNodesAllocated = Arena.totalAllocated();
  St.ShadowValuesAllocated = Shadow.totalValuesCreated();
  St.InfluenceSetsInterned = Sets.internedSets();
  return St;
}

//===----------------------------------------------------------------------===//
// Op identity: content-hashed (location, opcode) interning
//===----------------------------------------------------------------------===//

uint32_t *Context::slotsFor(const void *Key) {
  auto [It, Inserted] = StaticSlotCache.try_emplace(Key);
  if (Inserted)
    It->second.fill(UINT32_MAX);
  // unordered_map never moves its nodes, so the pointer stays valid.
  return It->second.data();
}

void Context::setLoc(SourceLoc Loc) {
  if (CurLoc == &OwnLoc && Loc == OwnLoc)
    return;
  OwnLoc = std::move(Loc);
  CurLoc = &OwnLoc;
  OwnSlots.fill(UINT32_MAX);
  Slots = OwnSlots.data();
}

void Context::stampLoc(const SourceLoc &StaticLoc) {
  if (CurLoc == &StaticLoc)
    return; // re-stamping the same line (every loop trip): free
  CurLoc = &StaticLoc;
  Slots = slotsFor(&StaticLoc);
}

/// 32-bit FNV-1a; the id space record maps and reports key on.
static uint32_t fnv1a32(const char *S, size_t N, uint32_t H) {
  for (size_t I = 0; I < N; ++I) {
    H ^= static_cast<unsigned char>(S[I]);
    H *= 0x01000193u;
  }
  return H;
}

uint32_t Context::internSite(const char *Tag, uint32_t &Slot) {
  if (Slot != UINT32_MAX)
    return Slot;
  // Hash the canonical key "file\x1Fline\x1Ffunction\x1Ftag". Content
  // addressing is the whole point: the id depends on nothing but the
  // source identity, so every worker, process, and cached shard document
  // numbers the same operation identically.
  char LineBuf[16];
  int LineLen = std::snprintf(LineBuf, sizeof(LineBuf), "%d", CurLoc->Line);
  uint32_t H = 0x811c9dc5u;
  H = fnv1a32(CurLoc->File.data(), CurLoc->File.size(), H);
  H = fnv1a32("\x1f", 1, H);
  H = fnv1a32(LineBuf, static_cast<size_t>(LineLen), H);
  H = fnv1a32("\x1f", 1, H);
  H = fnv1a32(CurLoc->Function.data(), CurLoc->Function.size(), H);
  H = fnv1a32("\x1f", 1, H);
  H = fnv1a32(Tag, std::strlen(Tag), H);

  std::string Key = CurLoc->File + "\x1f" + LineBuf + "\x1f" +
                    CurLoc->Function + "\x1f" + Tag;
  auto It = SiteKeys.find(H);
  if (It == SiteKeys.end()) {
    SiteKeys.emplace(H, std::move(Key));
  } else if (It->second != Key) {
    // Two sites share one record: coarser, still sound. Count each
    // distinct colliding site once, however often it re-interns.
    if (CollidedKeys.insert(std::move(Key)).second)
      ++Collisions;
  }
  Slot = H;
  return H;
}

uint32_t Context::opSite(Opcode Op) {
  return internSite(opInfo(Op).Name, Slots[static_cast<unsigned>(Op)]);
}

uint32_t Context::outputSite() {
  return internSite("out", Slots[static_cast<unsigned>(Opcode::NumOpcodes)]);
}

//===----------------------------------------------------------------------===//
// Shadow plumbing
//===----------------------------------------------------------------------===//

void Context::retainShadow(ShadowValue *SV) { Shadow.retain(SV); }
void Context::releaseShadow(ShadowValue *SV) { Shadow.release(SV); }

ShadowValue *Context::shadowOf(const Real &R, ShadowValue *&Ephemeral) {
  Ephemeral = nullptr;
  if (ShadowValue *Own = ownShadow(R))
    return Own;
  ShadowValue *SV = leaf(Value::ofF64(R.Val));
  if (!R.Ctx) {
    // Install on the Real so later uses share one leaf, exactly like the
    // interpreter installing a lazy shadow on its temporary.
    R.SV = SV;
    R.Ctx = this;
    return SV;
  }
  // The Real belongs to another context: leave it alone and use a
  // this-context shadow of its concrete double for just this operation.
  Ephemeral = SV;
  return SV;
}

//===----------------------------------------------------------------------===//
// Inputs, outputs, kernels
//===----------------------------------------------------------------------===//

void Context::bindInputs(const double *Vals, size_t N) {
  Inputs = Vals;
  NumInputs = N;
}

Real Context::input(size_t I) {
  assert(Inputs && I < NumInputs && "input index out of the bound tuple");
  return input(I, Inputs[I]);
}

Real Context::input(size_t I, double V) {
  (void)I;
  Real R;
  R.Val = V;
  R.Ctx = this;
  R.SV = leaf(Value::ofF64(V));
  return R;
}

double Context::output(const Real &R) {
  ++SpotOps;
  Analyzer::output(outputSite(), *CurLoc, ownShadow(R), Value::ofF64(R.Val));
  return R.Val;
}

void Context::run(const Kernel &K, const double *Vals, size_t N) {
  trace::Span InvokeSpan("kernel.invoke", "native",
                         trace::enabled()
                             ? format("{\"kernel\":\"%s\"}",
                                      jsonEscape(K.Name).c_str())
                             : std::string());
  Activation Act(*this);
  RunSuspect = false; // each invocation gets its own tier-0 verdict
  // Every invocation starts from the unknown location: a kernel op that
  // runs before the kernel's first HG_LOC must key identically on every
  // invocation, not under whatever location the previous invocation's
  // tail left current (record ids must not depend on how runs are
  // batched into shards).
  CurLoc = &UnknownLoc;
  Slots = slotsFor(&UnknownLoc);
  // RAII unbind: the tuple pointer must not outlive the invocation even
  // when the kernel function throws (a stale non-null pointer would
  // defeat input()'s unbound assert and read freed memory later).
  struct BindGuard {
    Context &C;
    ~BindGuard() { C.bindInputs(nullptr, 0); }
  } Guard{*this};
  bindInputs(Vals, N);
  K.Fn(*this, Vals, N);
}

void Context::run(const Kernel &K, const std::vector<double> &Vals) {
  run(K, Vals.data(), Vals.size());
}

void Context::runBatch(const Kernel &K, const std::vector<double> *Tuples,
                       size_t NumTuples) {
  for (size_t I = 0; I < NumTuples; ++I)
    run(K, Tuples[I]);
}

//===----------------------------------------------------------------------===//
// The shadowed operations (Real's operators funnel here)
//===----------------------------------------------------------------------===//

Real Context::applyOp(Opcode Op, const Real *const *Args, unsigned N) {
  Value ArgVals[3];
  ShadowValue *ArgSV[3];
  ShadowValue *Ephemeral[3] = {nullptr, nullptr, nullptr};
  for (unsigned I = 0; I < N; ++I) {
    ArgVals[I] = Value::ofF64(Args[I]->Val);
    ArgSV[I] = shadowOf(*Args[I], Ephemeral[I]);
  }
  // The concrete result: evalScalarOp *is* the native double semantics
  // (shared with the interpreter so the two frontends agree bit-for-bit).
  Value Concrete = evalScalarOp(Op, ArgVals, N);
  ShadowValue *Out = op(Op, opSite(Op), *CurLoc, ArgSV, ArgVals, N, Concrete);
  for (unsigned I = 0; I < N; ++I)
    if (Ephemeral[I])
      Shadow.release(Ephemeral[I]);

  Real R;
  R.Val = Concrete.F64;
  R.SV = Out;
  R.Ctx = this;
  return R;
}

bool Context::applyComparison(Opcode Op, const Real &A, const Real &B) {
  ++SpotOps;
  Value ArgVals[2] = {Value::ofF64(A.Val), Value::ofF64(B.Val)};
  bool FloatPred = evalScalarOp(Op, ArgVals, 2).asI64() != 0;
  comparison(Op, opSite(Op), *CurLoc, ownShadow(A), ownShadow(B), ArgVals[0],
             ArgVals[1], FloatPred);
  return FloatPred;
}

int64_t Context::applyConversion(const Real &A) {
  ++SpotOps;
  Value AV = Value::ofF64(A.Val);
  int64_t IntResult = evalScalarOp(Opcode::F64toI64, &AV, 1).asI64();
  conversion(opSite(Opcode::F64toI64), *CurLoc, ownShadow(A), AV, IntResult);
  return IntResult;
}

//===----------------------------------------------------------------------===//
// Static dispatch (Real's operators)
//===----------------------------------------------------------------------===//

Context *Context::ofOperands(const Real *const *Args, unsigned N) {
  for (unsigned I = 0; I < N; ++I)
    if (Args[I]->Ctx)
      return Args[I]->Ctx;
  return active();
}

Real Context::unaryOp(Opcode Op, const Real &A) {
  const Real *Args[1] = {&A};
  if (Context *C = ofOperands(Args, 1))
    return C->applyOp(Op, Args, 1);
  Value V = Value::ofF64(A.value());
  return Real(evalScalarOp(Op, &V, 1).F64);
}

Real Context::binaryOp(Opcode Op, const Real &A, const Real &B) {
  const Real *Args[2] = {&A, &B};
  if (Context *C = ofOperands(Args, 2))
    return C->applyOp(Op, Args, 2);
  Value V[2] = {Value::ofF64(A.value()), Value::ofF64(B.value())};
  return Real(evalScalarOp(Op, V, 2).F64);
}

Real Context::ternaryOp(Opcode Op, const Real &A, const Real &B,
                        const Real &C) {
  const Real *Args[3] = {&A, &B, &C};
  if (Context *Ctx = ofOperands(Args, 3))
    return Ctx->applyOp(Op, Args, 3);
  Value V[3] = {Value::ofF64(A.value()), Value::ofF64(B.value()),
                Value::ofF64(C.value())};
  return Real(evalScalarOp(Op, V, 3).F64);
}

bool Context::comparisonOp(Opcode Op, const Real &A, const Real &B) {
  const Real *Args[2] = {&A, &B};
  if (Context *C = ofOperands(Args, 2))
    return C->applyComparison(Op, A, B);
  Value V[2] = {Value::ofF64(A.value()), Value::ofF64(B.value())};
  return evalScalarOp(Op, V, 2).asI64() != 0;
}

int64_t Context::conversionOp(const Real &A) {
  const Real *Args[1] = {&A};
  if (Context *C = ofOperands(Args, 1))
    return C->applyConversion(A);
  Value V = Value::ofF64(A.value());
  return evalScalarOp(Opcode::F64toI64, &V, 1).asI64();
}
