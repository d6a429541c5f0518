//===- isa/jit/JitBackend.cpp - JIT execution backend ---------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The JIT ExecBackend: a dispatcher structured exactly like the
/// predecoded interpreter loop of isa/Interp.cpp (budget first, then
/// the stop PC, PC validity, illegal, the halt self-jump), which runs
/// hot compiled blocks natively and interprets everything else one step
/// at a time.  Keeping the loop shape identical to isa::run is what
/// makes the backend's step counts, faults, and halt decisions
/// bit-identical to the interpreter's.
///
//===----------------------------------------------------------------------===//

#include "isa/jit/Jit.h"

#include "isa/Interp.h"
#include "isa/jit/CodeArena.h"
#include "isa/jit/JitInternal.h"

#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define SILVER_JIT_HAVE_MMAP 1
#else
#define SILVER_JIT_HAVE_MMAP 0
#endif

using namespace silver;
using namespace silver::isa;
using namespace silver::isa::jit;

bool silver::isa::jit::hostSupported() {
#if (defined(__x86_64__) || defined(_M_X64)) && SILVER_JIT_HAVE_MMAP
  // The templates are x86-64; beyond the architecture, executable
  // memory must actually be mappable (hardened environments may refuse).
  static const bool Ok = [] {
    void *P = mmap(nullptr, 4096, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (P == MAP_FAILED)
      return false;
    bool Good = mprotect(P, 4096, PROT_READ | PROT_EXEC) == 0;
    munmap(P, 4096);
    return Good;
  }();
  return Ok;
#else
  return false;
#endif
}

namespace {

class JitBackend final : public ExecBackend {
public:
  explicit JitBackend(const JitOptions &O)
      : Opts(O), NativeOk(hostSupported()),
        Arena(NativeOk ? O.CodeBytes : 0) {
    if (!Arena.valid())
      NativeOk = false;
    if (!NativeOk)
      return;
    Emitter Em;
    size_t EnterOff = 0, ExitOff = 0;
    emitRuntimeThunks(Em, EnterOff, ExitOff);
    uint8_t *P = Arena.alloc(Em.size());
    if (!P) {
      NativeOk = false;
      return;
    }
    std::memcpy(P, Em.Code.data(), Em.size());
    Arena.endWrite();
    Enter = reinterpret_cast<EnterFn>(P + EnterOff);
    CommonExit = P + ExitOff;
    ThunkBytes = Arena.used();
  }

  const char *name() const override { return "jit"; }

  RunResult run(MachineState &State, IsaEnv &Env, uint64_t MaxSteps,
                std::optional<Word> StopPc, ObsHooks *Hooks) override {
    bool Observed = Hooks && Hooks->Obs;
    if (NativeOk && !Observed)
      return dispatch(State, Env, MaxSteps, StopPc.has_value(),
                      StopPc.value_or(0));
    // Observed runs are interpreter-exact by definition.  The delegated
    // run's decodes land on pages the guard map has never seen, and its
    // stores bypass block invalidation, so re-derive the guard set and
    // drop every block before the next native burst.
    RunResult R = isa::run(State, Env, MaxSteps, StopPc, Hooks, Cache);
    CacheDirty = true;
    if (NativeOk)
      flushBlocks();
    return R;
  }

  void invalidate(Word Addr, Word Size) override {
    Cache.invalidate(Addr, Size);
    invalidateBlocksOverlap(Addr, Size);
  }

  void invalidateAll() override {
    Cache.invalidateAll();
    if (NativeOk)
      flushBlocks();
  }

  const DecodeCache::Stats &decodeStats() const override {
    return Cache.stats();
  }

  const JitStats &stats() const { return Stats; }

private:
  using EnterFn = void (*)(JitFrame *, const void *);

  enum BlockState : uint8_t { StCold = 0, StCompiled = 1, StRefused = 2 };

  struct BlockEntry {
    uint8_t *Code = nullptr;
    uint32_t Len = 0;
    uint32_t Counter = 0;
    uint8_t St = StCold;
  };
  struct BlockPage {
    std::array<BlockEntry, DecodeCache::PageSlots> Slots{};
  };
  /// One installed block, for invalidation by source byte range.
  struct BlockRecord {
    Word Entry = 0;
    Word First = 0;
    Word Last = 0; ///< inclusive
    uint8_t *Code = nullptr;
    uint8_t *InvalidStub = nullptr;
    bool Live = false;
  };
  struct PendingStore {
    Word Addr = 0;
    Word Size = 0;
  };

  JitOptions Opts;
  DecodeCache Cache;
  bool NativeOk = false;
  CodeArena Arena;
  EnterFn Enter = nullptr;
  uint8_t *CommonExit = nullptr;
  size_t ThunkBytes = 0;
  JitFrame Frame;
  JitStats Stats;

  std::vector<std::unique_ptr<BlockPage>> BlockPages;
  std::vector<BlockRecord> Records;
  /// Chain slots (address of their E9 byte) waiting for a target PC to
  /// be compiled.
  std::unordered_multimap<Word, uint8_t *> PendingChains;

  /// One byte per 4 KiB page: nonzero when the page ever carried code
  /// (a compiled block's source bytes, or a decoded cache slot).
  /// Translated stores into guarded pages deoptimize; bits are only
  /// cleared when the map is rebuilt wholesale.
  std::vector<uint8_t> GuardMap;

  /// The stop PC the current block population was compiled under;
  /// changing it flushes (blocks never straddle the stop PC).
  bool HasStamp = false;
  bool StampHasStop = false;
  Word StampStopPc = 0;

  /// Identity of the memory the blocks were compiled from.
  const uint8_t *MemData = nullptr;
  size_t MemSize = 0;

  /// Decode-cache entries were created outside the dispatcher (by an
  /// observed run); re-derive guard pages before the next native burst.
  bool CacheDirty = false;

  void markGuardPage(Word Addr) { GuardMap[Addr >> GuardPageShift] = 1; }

  bool guardedRange(Word Addr, Word Size) const {
    return GuardMap[Addr >> GuardPageShift] ||
           GuardMap[(Addr + (Size - 1)) >> GuardPageShift];
  }

  BlockEntry &blockEntry(Word Pc) {
    size_t PageIdx = Pc >> GuardPageShift;
    if (PageIdx >= BlockPages.size())
      BlockPages.resize(PageIdx + 1);
    if (!BlockPages[PageIdx])
      BlockPages[PageIdx] = std::make_unique<BlockPage>();
    return BlockPages[PageIdx]
        ->Slots[(Pc & DecodeCache::PageMask) >> 2];
  }

  const BlockEntry *findBlock(Word Pc) const {
    size_t PageIdx = Pc >> GuardPageShift;
    if (PageIdx >= BlockPages.size() || !BlockPages[PageIdx])
      return nullptr;
    return &BlockPages[PageIdx]
                ->Slots[(Pc & DecodeCache::PageMask) >> 2];
  }

  static void patchRel32At(uint8_t *Field, const uint8_t *Target) {
    int64_t Rel = Target - (Field + 4);
    uint32_t V = static_cast<uint32_t>(static_cast<int32_t>(Rel));
    Field[0] = static_cast<uint8_t>(V);
    Field[1] = static_cast<uint8_t>(V >> 8);
    Field[2] = static_cast<uint8_t>(V >> 16);
    Field[3] = static_cast<uint8_t>(V >> 24);
  }

  /// Drops every compiled block (arena pressure, stop-PC change, memory
  /// identity change, observed-run delegation).  The thunks survive.
  void flushBlocks() {
    for (std::unique_ptr<BlockPage> &P : BlockPages)
      if (P)
        for (BlockEntry &E : P->Slots)
          E = BlockEntry{};
    Records.clear();
    PendingChains.clear();
    Arena.resetTo(ThunkBytes);
  }

  /// Invalidates installed blocks whose source bytes overlap
  /// [Addr, Addr+Size): the block's entry is patched into a jump to its
  /// invalidation stub, so stale incoming chains bounce out safely.
  void invalidateBlocksOverlap(Word Addr, Word Size) {
    if (Size == 0 || Records.empty())
      return;
    Word First = Addr;
    Word Last = Addr + (Size - 1);
    bool Writing = false;
    for (BlockRecord &R : Records) {
      if (!R.Live || R.Last < First || R.First > Last)
        continue;
      if (!Writing) {
        Arena.beginWrite();
        Writing = true;
      }
      R.Code[0] = 0xe9;
      patchRel32At(R.Code + 1, R.InvalidStub);
      R.Live = false;
      BlockEntry &E = blockEntry(R.Entry);
      E = BlockEntry{};
      ++Stats.BlockInvalidations;
    }
    if (Writing)
      Arena.endWrite();
  }

  /// The store the next interpreted step, the already-decoded \p D at a
  /// PC the dispatcher has validated, would perform, so its block
  /// invalidation can be applied after the step commits.
  PendingStore pendingStore(const MachineState &State,
                            const DecodedInsn &D) {
    PendingStore P;
    if (Records.empty())
      return P;
    if (D.I.Op == Opcode::StoreMEM) {
      P.Addr = State.operandValue(D.I.B);
      P.Size = 4;
    } else if (D.I.Op == Opcode::StoreMEMByte) {
      P.Addr = State.operandValue(D.I.B);
      P.Size = 1;
    }
    return P;
  }

  void prepareRun(MachineState &State, bool HasStop, Word StopPc) {
    if (State.Memory.size() != MemSize ||
        State.Memory.data() != MemData) {
      // A different (or resized) memory: every derived artifact and the
      // guard set refer to the old one.
      Cache.invalidateAll();
      flushBlocks();
      MemSize = State.Memory.size();
      MemData = State.Memory.data();
      GuardMap.assign((MemSize >> GuardPageShift) + 1, 0);
      CacheDirty = false;
    }
    if (!HasStamp || StampHasStop != HasStop ||
        (HasStop && StampStopPc != StopPc)) {
      if (HasStamp)
        flushBlocks();
      HasStamp = true;
      StampHasStop = HasStop;
      StampStopPc = StopPc;
    }
    if (CacheDirty) {
      // Decodes happened behind the dispatcher's back; every cached
      // page must be guarded before translated stores run again.
      Cache.forEachCachedPage([&](Word Page) { markGuardPage(Page); });
      CacheDirty = false;
    }
  }

  void runNative(MachineState &State, const uint8_t *Code,
                 uint64_t &Remaining) {
    Frame.Regs = State.Regs.data();
    Frame.Mem = State.Memory.data();
    Frame.GuardMap = GuardMap.data();
    Frame.StepsLeft = Remaining;
    Frame.Pc = State.PC;
    Frame.ExitKind = ExitChain;
    Frame.Carry = State.CarryFlag ? 1 : 0;
    Frame.Overflow = State.OverflowFlag ? 1 : 0;
    Frame.InvertAddCarry = fault::InvertAddCarry ? 1 : 0;
    Enter(&Frame, Code);
    State.PC = Frame.Pc;
    State.CarryFlag = Frame.Carry != 0;
    State.OverflowFlag = Frame.Overflow != 0;
    Remaining = Frame.StepsLeft;
  }

  /// One interpreted step at a PC the dispatcher has already validated
  /// (in range, aligned, decodable, not the halt self-jump): the
  /// predecoded run with budget 1, plus the block-side half of the
  /// store-invalidation contract.
  bool interpretOne(MachineState &State, IsaEnv &Env, const DecodedInsn &D,
                    uint64_t &Remaining, RunResult &R) {
    PendingStore PS = pendingStore(State, D);
    RunResult One = isa::run(State, Env, 1, std::nullopt, nullptr, Cache);
    if (One.Fault != StepFault::None) {
      R.Fault = One.Fault; // the faulting step is not counted
      return false;
    }
    --Remaining;
    if (PS.Size && guardedRange(PS.Addr, PS.Size))
      invalidateBlocksOverlap(PS.Addr, PS.Size);
    return true;
  }

  void tryCompile(MachineState &State, Word Entry) {
    CompiledCode CC;
    RefuseReason Why = RefuseReason::None;
    if (!compileBlock(State, Entry, StampHasStop, StampStopPc, CC, Why)) {
      blockEntry(Entry).St = StRefused;
      ++Stats.BlocksRefused;
      return;
    }
    uint8_t *P = Arena.alloc(CC.Bytes.size());
    if (!P) {
      flushBlocks();
      ++Stats.ArenaFlushes;
      P = Arena.alloc(CC.Bytes.size());
      if (!P) { // cannot ever fit
        blockEntry(Entry).St = StRefused;
        ++Stats.BlocksRefused;
        return;
      }
    }
    Arena.beginWrite();
    std::memcpy(P, CC.Bytes.data(), CC.Bytes.size());
    for (size_t F : CC.ExitFixups)
      patchRel32At(P + F, CommonExit);
    // Outgoing edges: patch now when the target is already compiled,
    // park in PendingChains otherwise.
    for (const CompiledCode::ChainSlot &CS : CC.Chains) {
      uint8_t *Slot = P + CS.Off;
      const BlockEntry *T = findBlock(CS.TargetPc);
      if (T && T->St == StCompiled)
        patchRel32At(Slot + 1, T->Code);
      else
        PendingChains.emplace(CS.TargetPc, Slot);
    }
    // Incoming edges parked on this entry.
    auto Range = PendingChains.equal_range(Entry);
    for (auto It = Range.first; It != Range.second; ++It)
      patchRel32At(It->second + 1, P);
    PendingChains.erase(Range.first, Range.second);
    Arena.endWrite();

    for (Word Page = CC.FirstByte >> GuardPageShift,
              End = CC.LastByte >> GuardPageShift;
         Page <= End; ++Page)
      GuardMap[Page] = 1;

    BlockRecord Rec;
    Rec.Entry = Entry;
    Rec.First = CC.FirstByte;
    Rec.Last = CC.LastByte;
    Rec.Code = P;
    Rec.InvalidStub = P + CC.InvalidStubOff;
    Rec.Live = true;
    Records.push_back(Rec);

    BlockEntry &E = blockEntry(Entry);
    E.Code = P;
    E.Len = CC.Instrs;
    E.St = StCompiled;
    ++Stats.BlocksCompiled;
  }

  /// The dispatcher.  Structured exactly like the predecoded isa::run:
  /// budget, stop PC, PC validity, illegal word, halt self-jump — then
  /// either a native burst through compiled blocks or one interpreted
  /// step.
  RunResult dispatch(MachineState &State, IsaEnv &Env, uint64_t MaxSteps,
                     bool HasStop, Word StopPc) {
    prepareRun(State, HasStop, StopPc);
    RunResult R;
    uint64_t Remaining = MaxSteps;
    while (Remaining > 0) {
      if (HasStop && State.PC == StopPc) {
        R.AtStopPc = true;
        break;
      }
      if (!State.inRange(State.PC, 4) || !isAligned(State.PC, 4)) {
        // Not a halt; take the reference step to report the exact fault.
        StepResult S = isa::step(State, Env);
        R.Fault = S.Fault;
        break;
      }
      const DecodedInsn &D = Cache.lookup(State, State.PC);
      if (D.St == DecodedInsn::Illegal) {
        R.Fault = StepFault::IllegalInstruction;
        break;
      }
      if (D.SelfJump) {
        R.Halted = true;
        break;
      }
      markGuardPage(State.PC); // this page now carries decoded state
      BlockEntry &B = blockEntry(State.PC);
      if (B.St == StCold && ++B.Counter >= Opts.HotThreshold)
        tryCompile(State, State.PC);
      // tryCompile may have flushed; re-read the entry.
      const BlockEntry &BE = *findBlock(State.PC);
      if (BE.St == StCompiled && Remaining >= BE.Len) {
        runNative(State, BE.Code, Remaining);
        if (Frame.ExitKind == ExitDeopt) {
          ++Stats.Deopts;
          if (!interpretOne(State, Env, Cache.lookup(State, State.PC),
                            Remaining, R))
            break;
        }
        continue;
      }
      if (!interpretOne(State, Env, D, Remaining, R))
        break;
    }
    R.Steps = MaxSteps - Remaining;
    return R;
  }
};

} // namespace

std::unique_ptr<ExecBackend>
silver::isa::jit::makeJitBackend(const JitOptions &Opts) {
  return std::make_unique<JitBackend>(Opts);
}

const JitStats *silver::isa::jit::backendStats(const ExecBackend &Backend) {
  if (std::strcmp(Backend.name(), "jit") != 0)
    return nullptr;
  return &static_cast<const JitBackend &>(Backend).stats();
}
