//===- isa/GuestMemory.h - Demand-zero guest memory buffer -----*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The byte array behind a Silver machine's memory: a fixed-size buffer
/// whose zero fill is left to the allocator.  A fresh buffer comes from
/// calloc, which for a large block maps demand-zero pages and skips the
/// memset, so a run pays page faults only for the pages it touches (a
/// booted hello image touches about 26 of 1,024).  A buffer the heap
/// reuses costs one memset, as std::vector<uint8_t>(N, 0) always did.
/// Copies are malloc + memcpy; moves transfer the block.  The size is
/// fixed at construction: there is no resize, so no path can grow the
/// buffer past the zeroed prefix.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_ISA_GUESTMEMORY_H
#define SILVER_ISA_GUESTMEMORY_H

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>

namespace silver {
namespace isa {

class GuestMemory {
public:
  using iterator = uint8_t *;
  using const_iterator = const uint8_t *;

  GuestMemory() = default;

  /// \p Bytes zero bytes, as demand-zero pages where the allocator can.
  explicit GuestMemory(size_t Bytes)
      : Data(allocate(Bytes, true)), Size(Bytes) {}

  /// \p Bytes bytes all equal to \p Fill.
  GuestMemory(size_t Bytes, uint8_t Fill)
      : Data(allocate(Bytes, Fill == 0)), Size(Bytes) {
    if (Fill != 0)
      std::memset(Data, Fill, Size);
  }

  GuestMemory(const GuestMemory &O)
      : Data(allocate(O.Size, false)), Size(O.Size) {
    if (Size)
      std::memcpy(Data, O.Data, Size);
  }

  GuestMemory(GuestMemory &&O) noexcept
      : Data(std::exchange(O.Data, nullptr)), Size(std::exchange(O.Size, 0)) {}

  /// Same-size assignment reuses this buffer: one memcpy, no allocation.
  GuestMemory &operator=(const GuestMemory &O) {
    if (this == &O)
      return *this;
    if (Size == O.Size) {
      if (Size)
        std::memcpy(Data, O.Data, Size);
      return *this;
    }
    return *this = GuestMemory(O);
  }

  GuestMemory &operator=(GuestMemory &&O) noexcept {
    if (this != &O) {
      std::free(Data);
      Data = std::exchange(O.Data, nullptr);
      Size = std::exchange(O.Size, 0);
    }
    return *this;
  }

  ~GuestMemory() { std::free(Data); }

  uint8_t *data() { return Data; }
  const uint8_t *data() const { return Data; }
  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }

  uint8_t &operator[](size_t I) { return Data[I]; }
  uint8_t operator[](size_t I) const { return Data[I]; }

  iterator begin() { return Data; }
  iterator end() { return Data + Size; }
  const_iterator begin() const { return Data; }
  const_iterator end() const { return Data + Size; }

  friend bool operator==(const GuestMemory &A, const GuestMemory &B) {
    return A.Size == B.Size &&
           (A.Size == 0 || std::memcmp(A.Data, B.Data, A.Size) == 0);
  }
  friend bool operator!=(const GuestMemory &A, const GuestMemory &B) {
    return !(A == B);
  }

private:
  static uint8_t *allocate(size_t Bytes, bool Zeroed) {
    if (Bytes == 0)
      return nullptr;
    void *P = Zeroed ? std::calloc(Bytes, 1) : std::malloc(Bytes);
    if (!P)
      throw std::bad_alloc();
    return static_cast<uint8_t *>(P);
  }

  uint8_t *Data = nullptr;
  size_t Size = 0;
};

} // namespace isa
} // namespace silver

#endif // SILVER_ISA_GUESTMEMORY_H
