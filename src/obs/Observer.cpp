//===- obs/Observer.cpp - Unified observability interface --------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "obs/Observer.h"

#include <algorithm>

using namespace silver;
using namespace silver::obs;

const char *silver::obs::regionName(Region R) {
  switch (R) {
  case Region::Startup:
    return "startup";
  case Region::Descriptor:
    return "descriptor";
  case Region::Cmdline:
    return "cmdline";
  case Region::Stdin:
    return "stdin";
  case Region::OutBuf:
    return "outbuf";
  case Region::SyscallCode:
    return "syscall";
  case Region::Heap:
    return "heap";
  case Region::Code:
    return "code";
  case Region::Other:
    return "other";
  }
  return "?";
}

void RegionMap::add(Word Begin, Word End, Region R) {
  if (Begin >= End)
    return;
  Entry E{Begin, End, R};
  Entries.insert(std::upper_bound(Entries.begin(), Entries.end(), E,
                                  [](const Entry &A, const Entry &B) {
                                    return A.Begin < B.Begin;
                                  }),
                 E);
}

Region RegionMap::classify(Word Addr) const {
  auto It = std::upper_bound(Entries.begin(), Entries.end(), Addr,
                             [](Word A, const Entry &E) { return A < E.Begin; });
  if (It == Entries.begin())
    return Region::Other;
  --It;
  return Addr < It->End ? It->R : Region::Other;
}

Observer::~Observer() = default;
void Observer::onRunBegin(stack::Level) {}
void Observer::onRetire(const RetireEvent &) {}
void Observer::onMem(const MemEvent &) {}
void Observer::onFfi(const FfiEvent &) {}
void Observer::onCycle(uint64_t) {}
void Observer::onRunEnd() {}

void MultiObserver::onRunBegin(stack::Level L) {
  for (Observer *O : Sinks)
    O->onRunBegin(L);
}
void MultiObserver::onRetire(const RetireEvent &E) {
  for (Observer *O : Sinks)
    O->onRetire(E);
}
void MultiObserver::onMem(const MemEvent &E) {
  for (Observer *O : Sinks)
    O->onMem(E);
}
void MultiObserver::onFfi(const FfiEvent &E) {
  for (Observer *O : Sinks)
    O->onFfi(E);
}
void MultiObserver::onCycle(uint64_t CycleIndex) {
  for (Observer *O : Sinks)
    O->onCycle(CycleIndex);
}
void MultiObserver::onRunEnd() {
  for (Observer *O : Sinks)
    O->onRunEnd();
}
