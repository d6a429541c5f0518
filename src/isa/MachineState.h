//===- isa/MachineState.h - Silver ISA machine state -----------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Silver ISA machine state (paper §4.1): memory (bytes), a 64-entry
/// register file, the program counter, carry and overflow flags, and a
/// trace of IO events.  The paper models memory as a total function from
/// addresses to bytes; we use a flat byte array of configurable size
/// (a demand-zero GuestMemory) and treat out-of-range accesses as errors
/// (the machine-sem layer turns these into Fail behaviours, which
/// compiled programs never exhibit).
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_ISA_MACHINESTATE_H
#define SILVER_ISA_MACHINESTATE_H

#include "isa/GuestMemory.h"
#include "isa/Instruction.h"
#include "support/Bits.h"

#include <array>
#include <cstdint>
#include <vector>

namespace silver {
namespace isa {

/// One observable IO event.  In the paper's ISA semantics the Interrupt
/// instruction "silently records the current state of memory by pushing it
/// onto the trace of IO events"; snapshotting all of memory per event is
/// impractical in a simulator, so the environment (see IsaEnv) extracts
/// the observable bytes — for the Silver system-call convention, the
/// output-buffer region — and those are what the trace stores.
struct IoEvent {
  enum class Kind : uint8_t { Interrupt, Output };
  Kind K = Kind::Interrupt;
  Word Value = 0;              ///< Out instruction payload
  std::vector<uint8_t> Bytes;  ///< environment-extracted observable bytes
};

/// The Silver machine state.
class MachineState {
public:
  /// Creates a state with \p MemBytes bytes of zeroed memory, all
  /// registers zero, PC zero, and clear flags.
  explicit MachineState(size_t MemBytes = DefaultMemBytes)
      : Memory(MemBytes) {
    Regs.fill(0);
  }

  /// Default memory size: 16 MiB, comfortably holding the paper's memory
  /// layout (Figure 2) with its ~5 MB stdin region.
  static constexpr size_t DefaultMemBytes = 16u << 20;

  std::array<Word, NumRegs> Regs;
  Word PC = 0;
  bool CarryFlag = false;
  bool OverflowFlag = false;
  GuestMemory Memory;
  std::vector<IoEvent> IoEvents;
  /// Last value written by an Out instruction (the data-out port).
  Word DataOut = 0;

  size_t memSize() const { return Memory.size(); }
  bool inRange(Word Addr, Word Size) const {
    return Addr <= Memory.size() && Size <= Memory.size() - Addr;
  }

  /// Little-endian 32-bit read; \p Addr must be in range and word-aligned
  /// (callers check, the interpreter reports errors for violations).
  Word readWord(Word Addr) const {
    return static_cast<Word>(Memory[Addr]) |
           (static_cast<Word>(Memory[Addr + 1]) << 8) |
           (static_cast<Word>(Memory[Addr + 2]) << 16) |
           (static_cast<Word>(Memory[Addr + 3]) << 24);
  }

  /// Little-endian 32-bit write.
  void writeWord(Word Addr, Word Value) {
    Memory[Addr] = static_cast<uint8_t>(Value);
    Memory[Addr + 1] = static_cast<uint8_t>(Value >> 8);
    Memory[Addr + 2] = static_cast<uint8_t>(Value >> 16);
    Memory[Addr + 3] = static_cast<uint8_t>(Value >> 24);
  }

  uint8_t readByte(Word Addr) const { return Memory[Addr]; }
  void writeByte(Word Addr, uint8_t Value) { Memory[Addr] = Value; }

  /// Reads \p Len bytes starting at \p Addr (must be in range).
  std::vector<uint8_t> readBytes(Word Addr, Word Len) const {
    return std::vector<uint8_t>(Memory.begin() + Addr,
                                Memory.begin() + Addr + Len);
  }

  /// Writes a byte span starting at \p Addr (must be in range).
  void writeBytes(Word Addr, const std::vector<uint8_t> &Bytes) {
    for (size_t I = 0; I != Bytes.size(); ++I)
      Memory[Addr + I] = Bytes[I];
  }

  /// Value of a register-or-immediate operand in this state.
  Word operandValue(Operand Op) const {
    return Op.IsImm ? Op.immValue() : Regs[Op.Value];
  }

  /// ISA-visible equality: registers, PC, flags and memory.  IO traces are
  /// compared separately (they live at different abstraction levels in the
  /// cross-layer checks, mirroring the paper's ag32_eq_* relation family).
  bool isaVisibleEquals(const MachineState &O) const {
    return Regs == O.Regs && PC == O.PC && CarryFlag == O.CarryFlag &&
           OverflowFlag == O.OverflowFlag && Memory == O.Memory;
  }
};

} // namespace isa
} // namespace silver

#endif // SILVER_ISA_MACHINESTATE_H
