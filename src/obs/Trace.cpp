//===- Trace.cpp - Cross-process distributed tracer ------------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <pthread.h>
#include <sys/syscall.h>
#include <unistd.h>

namespace spa {
namespace obs {

namespace {

/// Leading u32 of a serialized span buffer.  Distinct from the crash
/// postmortem pipe magic (0xDEADD00D) so the two optional sections of a
/// child result pipe can't be confused.
constexpr uint32_t SpanBufMagic = 0x53504254u; // "SPBT"

/// Serialized span buffers arrive over pipes that can tear; cap the
/// per-span name so a corrupt length prefix can't ask for gigabytes.
constexpr uint32_t MaxSpanNameBytes = 1u << 20;

/// Span id of the innermost open TraceScope on this thread (0 = none;
/// new spans then root under the tracer's process parent).
thread_local uint64_t ThreadParentSpan = 0;

struct PidTid {
  uint32_t Pid;
  uint32_t Tid;
};

/// Pid/tid of the calling thread.  The tid is cached per thread but
/// revalidated against getpid() so values stay correct across fork.
PidTid currentPidTid() {
  thread_local pid_t CachedPid = -1;
  thread_local pid_t CachedTid = -1;
  pid_t P = ::getpid();
  if (P != CachedPid) {
    CachedPid = P;
    CachedTid = static_cast<pid_t>(::syscall(SYS_gettid));
  }
  return {static_cast<uint32_t>(P), static_cast<uint32_t>(CachedTid)};
}

uint64_t steadyNowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Appends \p S to \p Out with JSON string escaping.
void appendEscaped(std::string &Out, const std::string &S) {
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(C)));
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
}

/// Appends \p N raw bytes.  Resize + memcpy rather than a range insert:
/// GCC 12 at -O3 misreads the inlined insert as a stringop overflow.
void putBytes(std::vector<uint8_t> &Out, const void *P, size_t N) {
  size_t At = Out.size();
  Out.resize(At + N);
  std::memcpy(Out.data() + At, P, N);
}

void putU32(std::vector<uint8_t> &Out, uint32_t V) {
  putBytes(Out, &V, sizeof(V));
}

void putU64(std::vector<uint8_t> &Out, uint64_t V) {
  putBytes(Out, &V, sizeof(V));
}

void putF64(std::vector<uint8_t> &Out, double V) {
  putBytes(Out, &V, sizeof(V));
}

/// Bounds-checked reader over a serialized span buffer.
class ByteReader {
public:
  ByteReader(const uint8_t *Data, size_t Len) : P(Data), End(Data + Len) {}

  bool readU32(uint32_t &V) { return readRaw(&V, sizeof(V)); }
  bool readU64(uint64_t &V) { return readRaw(&V, sizeof(V)); }
  bool readF64(double &V) { return readRaw(&V, sizeof(V)); }

  bool readString(std::string &S, uint32_t Len) {
    if (static_cast<size_t>(End - P) < Len)
      return false;
    S.assign(reinterpret_cast<const char *>(P), Len);
    P += Len;
    return true;
  }

private:
  bool readRaw(void *Out, size_t N) {
    if (static_cast<size_t>(End - P) < N)
      return false;
    std::memcpy(Out, P, N);
    P += N;
    return true;
  }

  const uint8_t *P;
  const uint8_t *End;
};

size_t serializedSpanBytes(const TraceSpan &S) {
  return 8 + 8 + 4 + 4 + 8 + 8 + 4 + S.Name.size();
}

} // namespace

uint64_t obsEpochNanos() {
  static const uint64_t Epoch = [] {
    if (const char *Env = std::getenv(ObsEpochEnvVar)) {
      char *EndP = nullptr;
      unsigned long long V = std::strtoull(Env, &EndP, 10);
      if (EndP && EndP != Env && *EndP == '\0')
        return static_cast<uint64_t>(V);
    }
    return steadyNowNanos();
  }();
  return Epoch;
}

double obsNowMicros() {
  // Pin the epoch BEFORE sampling the clock: if this is the process's
  // first epoch touch, the lazy init would otherwise capture a stamp
  // later than the minuend and the subtraction underflows.
  uint64_t Epoch = obsEpochNanos();
  return static_cast<double>(steadyNowNanos() - Epoch) / 1000.0;
}

Tracer &Tracer::global() {
  static Tracer T;
  return T;
}

Tracer::Tracer() {
  // Hold M across fork(), like the registry's mutex.  record() takes the
  // registry's mutex while holding M (first trace.dropped registration),
  // so M must be taken first: the registry registers its handlers before
  // this one, and prepare handlers run in reverse registration order.
  (void)Registry::global();
  pthread_atfork([] { global().M.lock(); }, [] { global().M.unlock(); },
                 [] { global().M.unlock(); });
  // Pin the shared timebase before any span can be stamped.
  (void)obsEpochNanos();
  if (const char *Env = std::getenv(TraceContextEnvVar)) {
    // "traceid:parentspan", both hex.  A parseable context also enables
    // recording: the spawner only exports it when tracing.
    unsigned long long Id = 0, Parent = 0;
    if (std::sscanf(Env, "%llx:%llx", &Id, &Parent) == 2 && Id != 0) {
      TraceId.store(static_cast<uint64_t>(Id), std::memory_order_relaxed);
      ProcessParent.store(static_cast<uint64_t>(Parent),
                          std::memory_order_relaxed);
      Enabled.store(true, std::memory_order_relaxed);
    }
  }
}

uint64_t Tracer::traceId() {
  uint64_t Id = TraceId.load(std::memory_order_relaxed);
  if (Id != 0)
    return Id;
  // Mint from pid + clock; the multiplier is the 64-bit FNV prime.
  uint64_t Minted = (static_cast<uint64_t>(::getpid()) << 32) ^
                    (steadyNowNanos() * 1099511628211ull);
  if (Minted == 0)
    Minted = 1;
  uint64_t Expected = 0;
  if (TraceId.compare_exchange_strong(Expected, Minted,
                                      std::memory_order_relaxed))
    return Minted;
  return Expected;
}

uint64_t Tracer::allocSpanId() {
  uint64_t Local = NextLocalId.fetch_add(1, std::memory_order_relaxed);
  return (static_cast<uint64_t>(::getpid()) << 32) | (Local & 0xffffffffull);
}

void Tracer::record(TraceSpan S) {
  SPA_OBS_COUNT("trace.spans", 1);
  std::lock_guard<std::mutex> Lock(M);
  if (RingCap != 0 && Spans.size() >= RingCap) {
    Spans.pop_front();
    ++Dropped;
    SPA_OBS_COUNT("trace.dropped", 1);
  }
  Spans.push_back(std::move(S));
}

void Tracer::addSpan(std::string Name, double TsMicros, double DurMicros,
                     uint64_t SpanId, uint64_t ParentSpanId) {
  if (!enabled())
    return;
  PidTid PT = currentPidTid();
  TraceSpan S;
  S.Name = std::move(Name);
  S.TsMicros = TsMicros;
  S.DurMicros = DurMicros;
  S.Pid = PT.Pid;
  S.Tid = PT.Tid;
  S.SpanId = SpanId;
  S.ParentSpanId = ParentSpanId;
  record(std::move(S));
}

void Tracer::setRingCapacity(size_t Cap) {
  std::lock_guard<std::mutex> Lock(M);
  RingCap = Cap;
  while (Cap != 0 && Spans.size() > Cap) {
    Spans.pop_front();
    ++Dropped;
  }
}

std::vector<uint8_t> Tracer::drainSerialized(size_t MaxBytes) {
  std::lock_guard<std::mutex> Lock(M);
  constexpr size_t HeaderBytes = 4 + 4 + 8;
  // Keep the newest suffix that fits the byte budget.
  size_t First = 0;
  if (MaxBytes != 0) {
    size_t Used = HeaderBytes;
    First = Spans.size();
    while (First > 0 &&
           Used + serializedSpanBytes(Spans[First - 1]) <= MaxBytes)
      Used += serializedSpanBytes(Spans[--First]);
  }
  Dropped += First;

  std::vector<uint8_t> Out;
  putU32(Out, SpanBufMagic);
  putU32(Out, static_cast<uint32_t>(Spans.size() - First));
  putU64(Out, TraceId.load(std::memory_order_relaxed));
  for (size_t I = First, E = Spans.size(); I != E; ++I) {
    const TraceSpan &S = Spans[I];
    putU64(Out, S.SpanId);
    putU64(Out, S.ParentSpanId);
    putU32(Out, S.Pid);
    putU32(Out, S.Tid);
    putF64(Out, S.TsMicros);
    putF64(Out, S.DurMicros);
    putU32(Out, static_cast<uint32_t>(S.Name.size()));
    Out.insert(Out.end(), S.Name.begin(), S.Name.end());
  }
  Spans.clear();
  return Out;
}

bool Tracer::ingestSerialized(const uint8_t *Data, size_t Len) {
  ByteReader R(Data, Len);
  uint32_t Magic = 0, Count = 0;
  uint64_t BufTraceId = 0;
  if (!R.readU32(Magic) || Magic != SpanBufMagic || !R.readU32(Count) ||
      !R.readU64(BufTraceId))
    return false;

  std::vector<TraceSpan> Parsed;
  Parsed.reserve(std::min<uint32_t>(Count, 4096));
  for (uint32_t I = 0; I < Count; ++I) {
    TraceSpan S;
    uint32_t NameLen = 0;
    if (!R.readU64(S.SpanId) || !R.readU64(S.ParentSpanId) ||
        !R.readU32(S.Pid) || !R.readU32(S.Tid) || !R.readF64(S.TsMicros) ||
        !R.readF64(S.DurMicros) || !R.readU32(NameLen) ||
        NameLen > MaxSpanNameBytes || !R.readString(S.Name, NameLen))
      return false;
    Parsed.push_back(std::move(S));
  }

  // Adopt the child's trace id when none was established here.
  uint64_t Expected = 0;
  if (BufTraceId != 0)
    TraceId.compare_exchange_strong(Expected, BufTraceId,
                                    std::memory_order_relaxed);

  std::lock_guard<std::mutex> Lock(M);
  for (TraceSpan &S : Parsed) {
    if (RingCap != 0 && Spans.size() >= RingCap) {
      Spans.pop_front();
      ++Dropped;
    }
    Spans.push_back(std::move(S));
  }
  return true;
}

std::string Tracer::toChromeJson() const {
  std::vector<TraceSpan> Sorted;
  uint64_t Id;
  {
    std::lock_guard<std::mutex> Lock(M);
    Sorted.assign(Spans.begin(), Spans.end());
    Id = TraceId.load(std::memory_order_relaxed);
  }
  std::sort(Sorted.begin(), Sorted.end(),
            [](const TraceSpan &A, const TraceSpan &B) {
              if (A.TsMicros != B.TsMicros)
                return A.TsMicros < B.TsMicros;
              if (A.Pid != B.Pid)
                return A.Pid < B.Pid;
              return A.SpanId < B.SpanId;
            });

  std::string Out;
  Out.reserve(128 + Sorted.size() * 160);
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "{\"traceId\":\"0x%" PRIx64 "\",\"epochNanos\":%" PRIu64
                ",\"traceEvents\":[",
                Id, obsEpochNanos());
  Out += Buf;
  bool FirstEv = true;
  for (const TraceSpan &S : Sorted) {
    if (!FirstEv)
      Out += ",";
    FirstEv = false;
    Out += "\n{\"name\":\"";
    appendEscaped(Out, S.Name);
    std::snprintf(Buf, sizeof(Buf),
                  "\",\"cat\":\"spa\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":%u,\"tid\":%u,\"args\":{\"id\":\"0x%" PRIx64
                  "\",\"parent\":\"0x%" PRIx64 "\"}}",
                  S.TsMicros, S.DurMicros, S.Pid, S.Tid, S.SpanId,
                  S.ParentSpanId);
    Out += Buf;
  }
  Out += "\n]}\n";
  return Out;
}

std::vector<TraceSpan> Tracer::spans() const {
  std::lock_guard<std::mutex> Lock(M);
  return std::vector<TraceSpan>(Spans.begin(), Spans.end());
}

uint64_t Tracer::droppedSpans() const {
  std::lock_guard<std::mutex> Lock(M);
  return Dropped;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> Lock(M);
  Spans.clear();
  Dropped = 0;
}

void Tracer::resetForChild(uint64_t ParentSpanId) {
  {
    std::lock_guard<std::mutex> Lock(M);
    Spans.clear();
    Dropped = 0;
  }
  ProcessParent.store(ParentSpanId, std::memory_order_relaxed);
  // The forking thread is the only one alive in the child; its open-scope
  // chain belongs to the parent process.
  ThreadParentSpan = 0;
}

std::string Tracer::contextString(uint64_t ParentSpanId) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%" PRIx64 ":%" PRIx64, traceId(),
                ParentSpanId);
  return Buf;
}

TraceScope::TraceScope(std::string Name) : N(std::move(Name)) {
  if (N.empty())
    return;
  Tracer &T = Tracer::global();
  if (!T.enabled())
    return;
  StartMicros = obsNowMicros();
  SpanId = T.allocSpanId();
  Parent = ThreadParentSpan != 0 ? ThreadParentSpan : T.processParent();
  PrevThreadParent = ThreadParentSpan;
  ThreadParentSpan = SpanId;
}

TraceScope::~TraceScope() {
  if (SpanId == 0)
    return;
  ThreadParentSpan = PrevThreadParent;
  PidTid PT = currentPidTid();
  TraceSpan S;
  S.Name = std::move(N);
  S.TsMicros = StartMicros;
  S.DurMicros = obsNowMicros() - StartMicros;
  S.Pid = PT.Pid;
  S.Tid = PT.Tid;
  S.SpanId = SpanId;
  S.ParentSpanId = Parent;
  Tracer::global().record(std::move(S));
}

} // namespace obs
} // namespace spa
