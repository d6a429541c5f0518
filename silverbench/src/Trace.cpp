//===- silverbench/Trace.cpp - In-memory spans around layer calls ---------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>

using namespace sb;

namespace {
// The innermost open span and the current op of this thread.  Only one
// tracer is active at a time, so per-thread state needs no tracer key.
thread_local int CurrentSpan = -1;
thread_local uint64_t CurrentOp = 0;
} // namespace

Tracer::Scope::Scope(Tracer &T, std::string Name)
    : T(T), Name(std::move(Name)) {
  if (T.Enabled) {
    std::lock_guard<std::mutex> Lock(T.Mu);
    Index = static_cast<int>(T.Spans.size());
    T.Spans.push_back({this->Name, 0, 0, CurrentSpan, CurrentOp});
    SavedCurrent = CurrentSpan;
    CurrentSpan = Index;
  }
  Start = Clock::now();
}

double Tracer::Scope::stop() {
  if (Ms >= 0)
    return Ms;
  Clock::time_point End = Clock::now();
  Ms = msBetween(Start, End);
  if (Index >= 0) {
    std::lock_guard<std::mutex> Lock(T.Mu);
    Span &S = T.Spans[static_cast<size_t>(Index)];
    S.StartNs = T.sinceEpoch(Start);
    S.EndNs = T.sinceEpoch(End);
    CurrentSpan = SavedCurrent;
  }
  return Ms;
}

void Tracer::setOp(uint64_t Op) { CurrentOp = Op; }

void Tracer::record(const std::string &Name, Clock::time_point Start,
                    Clock::time_point End, uint64_t Op) {
  if (!Enabled)
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  Spans.push_back({Name, sinceEpoch(Start), sinceEpoch(End), -1, Op});
}

std::map<std::string, std::vector<double>> Tracer::selfTimesMs() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<int64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[static_cast<size_t>(S.Parent)] += S.EndNs - S.StartNs;
  std::map<std::string, std::vector<double>> Out;
  for (size_t I = 0; I != Spans.size(); ++I) {
    int64_t Self = Spans[I].EndNs - Spans[I].StartNs - ChildNs[I];
    Out[Spans[I].Name].push_back(static_cast<double>(std::max<int64_t>(Self, 0)) /
                                 1e6);
  }
  return Out;
}

void Tracer::writeJson(std::ostream &Os) const {
  std::lock_guard<std::mutex> Lock(Mu);
  Os << "[";
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    Os << (I ? ",\n" : "\n") << "{\"id\":" << I << ",\"name\":\"" << S.Name
       << "\",\"start_ns\":" << S.StartNs << ",\"end_ns\":" << S.EndNs
       << ",\"parent\":" << S.Parent << ",\"op\":" << S.Op << "}";
  }
  Os << "\n]";
}
