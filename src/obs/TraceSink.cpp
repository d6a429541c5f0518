//===- obs/TraceSink.cpp - Event-trace recording observer --------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "obs/TraceSink.h"

#include <cstdio>
#include <ostream>

using namespace silver;
using namespace silver::obs;

void TraceSink::onRunBegin(stack::Level L) {
  Level = L;
  Cycles = 0;
  Retired = 0;
}

void TraceSink::push(const Rec &R) {
  if (Recs.size() >= MaxEvents) {
    ++Dropped;
    return;
  }
  Recs.push_back(R);
}

void TraceSink::onRetire(const RetireEvent &E) {
  push({Rec::Kind::Retire, Cycles, Retired, E.Pc, E.Opcode, false,
        E.Mnemonic});
  ++Retired;
}

void TraceSink::onMem(const MemEvent &E) {
  push({Rec::Kind::Mem, Cycles, Retired, E.Addr, E.Size, E.IsWrite, nullptr});
}

void TraceSink::onFfi(const FfiEvent &E) {
  push({E.Entry ? Rec::Kind::FfiEntry : Rec::Kind::FfiExit, Cycles, Retired,
        0, static_cast<uint8_t>(E.Index), false, nullptr});
}

void TraceSink::onCycle(uint64_t) { ++Cycles; }

void TraceSink::onRunEnd() {}

std::vector<std::pair<Word, uint8_t>> TraceSink::retireStream() const {
  std::vector<std::pair<Word, uint8_t>> Out;
  for (const Rec &R : Recs)
    if (R.K == Rec::Kind::Retire)
      Out.emplace_back(R.Addr, R.Op);
  return Out;
}

std::string TraceSink::ffiLabel(unsigned Index) const {
  if (Index < FfiNames.size())
    return FfiNames[Index];
  return "ffi#" + std::to_string(Index);
}

/// Timestamp of a record: cycles when the run has a clock, else the
/// retirement index.
static uint64_t tsOf(const TraceSink::Rec &R, bool HasClock) {
  return HasClock ? R.Cycle : R.Retire;
}

void TraceSink::writeJsonl(std::ostream &Out) const {
  char Line[192];
  for (const Rec &R : Recs) {
    switch (R.K) {
    case Rec::Kind::Retire:
      std::snprintf(Line, sizeof(Line),
                    "{\"t\":\"retire\",\"i\":%llu,\"pc\":%u,\"op\":%u,"
                    "\"name\":\"%s\",\"cycle\":%llu}\n",
                    (unsigned long long)R.Retire, R.Addr, R.Op,
                    R.Name ? R.Name : "", (unsigned long long)R.Cycle);
      break;
    case Rec::Kind::Mem:
      std::snprintf(Line, sizeof(Line),
                    "{\"t\":\"mem\",\"addr\":%u,\"size\":%u,\"write\":%s,"
                    "\"i\":%llu,\"cycle\":%llu}\n",
                    R.Addr, R.Op, R.IsWrite ? "true" : "false",
                    (unsigned long long)R.Retire,
                    (unsigned long long)R.Cycle);
      break;
    case Rec::Kind::FfiEntry:
    case Rec::Kind::FfiExit:
      std::snprintf(Line, sizeof(Line),
                    "{\"t\":\"ffi\",\"phase\":\"%s\",\"index\":%u,"
                    "\"name\":\"%s\",\"i\":%llu,\"cycle\":%llu}\n",
                    R.K == Rec::Kind::FfiEntry ? "entry" : "exit", R.Op,
                    ffiLabel(R.Op).c_str(), (unsigned long long)R.Retire,
                    (unsigned long long)R.Cycle);
      break;
    }
    Out << Line;
  }
  if (Dropped) {
    std::snprintf(Line, sizeof(Line),
                  "{\"t\":\"truncated\",\"dropped\":%llu}\n",
                  (unsigned long long)Dropped);
    Out << Line;
  }
}

void TraceSink::writeChromeTrace(std::ostream &Out) const {
  bool HasClock = false;
  for (const Rec &R : Recs)
    if (R.Cycle) {
      HasClock = true;
      break;
    }

  char Line[256];
  Out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  std::snprintf(Line, sizeof(Line),
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                "\"args\":{\"name\":\"silverstack\"}},\n"
                "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
                "\"args\":{\"name\":\"%s (%s)\"}}",
                stack::levelName(Level), HasClock ? "cycles" : "instructions");
  Out << Line;

  unsigned OpenFfi = 0;
  uint64_t LastTs = 0;
  for (const Rec &R : Recs) {
    uint64_t Ts = tsOf(R, HasClock);
    LastTs = Ts;
    switch (R.K) {
    case Rec::Kind::Retire:
      std::snprintf(Line, sizeof(Line),
                    ",\n{\"name\":\"%s\",\"cat\":\"retire\",\"ph\":\"X\","
                    "\"ts\":%llu,\"dur\":1,\"pid\":1,\"tid\":1,"
                    "\"args\":{\"pc\":%u,\"i\":%llu}}",
                    R.Name ? R.Name : "retire", (unsigned long long)Ts,
                    R.Addr, (unsigned long long)R.Retire);
      break;
    case Rec::Kind::Mem:
      std::snprintf(Line, sizeof(Line),
                    ",\n{\"name\":\"%s\",\"cat\":\"mem\",\"ph\":\"i\","
                    "\"s\":\"t\",\"ts\":%llu,\"pid\":1,\"tid\":1,"
                    "\"args\":{\"addr\":%u,\"size\":%u}}",
                    R.IsWrite ? "store" : "load", (unsigned long long)Ts,
                    R.Addr, R.Op);
      break;
    case Rec::Kind::FfiEntry:
      std::snprintf(Line, sizeof(Line),
                    ",\n{\"name\":\"%s\",\"cat\":\"ffi\",\"ph\":\"B\","
                    "\"ts\":%llu,\"pid\":1,\"tid\":1}",
                    ffiLabel(R.Op).c_str(), (unsigned long long)Ts);
      ++OpenFfi;
      break;
    case Rec::Kind::FfiExit:
      if (OpenFfi == 0)
        continue; // unmatched exit: drop rather than corrupt the nesting
      std::snprintf(Line, sizeof(Line),
                    ",\n{\"name\":\"%s\",\"cat\":\"ffi\",\"ph\":\"E\","
                    "\"ts\":%llu,\"pid\":1,\"tid\":1}",
                    ffiLabel(R.Op).c_str(), (unsigned long long)Ts);
      --OpenFfi;
      break;
    }
    Out << Line;
  }
  // Close any span left open (an "exit" call halts inside the syscall
  // code, so its exit event never fires).
  for (; OpenFfi; --OpenFfi) {
    std::snprintf(Line, sizeof(Line),
                  ",\n{\"name\":\"open-at-end\",\"cat\":\"ffi\",\"ph\":\"E\","
                  "\"ts\":%llu,\"pid\":1,\"tid\":1}",
                  (unsigned long long)(LastTs + 1));
    Out << Line;
  }
  Out << "\n]}\n";
}
