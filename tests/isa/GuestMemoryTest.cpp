//===- tests/isa/GuestMemoryTest.cpp - demand-zero guest memory tests ---------===//

#include "isa/GuestMemory.h"

#include <gtest/gtest.h>

using namespace silver::isa;

namespace {
constexpr size_t Page = 4096;
constexpr size_t Bytes = 4u << 20; // the default image size
} // namespace

TEST(GuestMemory, FreshBufferReadsZero) {
  GuestMemory M(Bytes);
  ASSERT_EQ(M.size(), Bytes);
  EXPECT_EQ(M[0], 0);
  EXPECT_EQ(M[Bytes - 1], 0);
  // Across a page edge, where a demand-zero mapping changes pages.
  for (size_t I = 3 * Page - 8; I != 3 * Page + 8; ++I)
    EXPECT_EQ(M[I], 0) << "byte " << I;
}

TEST(GuestMemory, FreshBufferAfterReuseReadsZero) {
  // A freed, dirtied block the heap hands back must still read zero.
  {
    GuestMemory Dirty(Bytes);
    for (size_t I = 0; I < Bytes; I += Page / 2)
      Dirty[I] = 0xa5;
  }
  GuestMemory M(Bytes);
  for (size_t I = 0; I < Bytes; I += Page / 2)
    ASSERT_EQ(M[I], 0) << "byte " << I;
}

TEST(GuestMemory, CopyIsEqualAndIndependent) {
  GuestMemory A(3 * Page);
  A[0] = 1;
  A[Page] = 2;
  A[3 * Page - 1] = 3;
  GuestMemory B = A;
  EXPECT_TRUE(A == B);
  EXPECT_NE(A.data(), B.data());
  B[Page] = 9;
  EXPECT_EQ(A[Page], 2);
  EXPECT_TRUE(A != B);
  A[Page] = 9;
  EXPECT_TRUE(A == B);

  // Assignment: same size reuses the buffer, a new size reallocates.
  GuestMemory C(3 * Page);
  const uint8_t *Before = C.data();
  C = A;
  EXPECT_EQ(C.data(), Before);
  EXPECT_TRUE(C == A);
  GuestMemory D(16);
  D = A;
  EXPECT_TRUE(D == A);
  D[0] = 7;
  EXPECT_EQ(A[0], 1);
}

TEST(GuestMemory, MoveLeavesSourceEmpty) {
  GuestMemory A(2 * Page);
  A[Page] = 42;
  const uint8_t *Block = A.data();

  GuestMemory B = std::move(A);
  EXPECT_EQ(B.data(), Block);
  EXPECT_EQ(B.size(), 2 * Page);
  EXPECT_EQ(B[Page], 42);
  EXPECT_TRUE(A.empty()); // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(A.data(), nullptr);

  GuestMemory C(8);
  C = std::move(B);
  EXPECT_EQ(C.data(), Block);
  EXPECT_TRUE(B.empty()); // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(B.size(), 0u);
}

TEST(GuestMemory, FillIsHonoured) {
  GuestMemory M(2 * Page + 3, 0xff);
  ASSERT_EQ(M.size(), 2 * Page + 3);
  for (uint8_t B : M)
    ASSERT_EQ(B, 0xff);
  GuestMemory Z(Page, 0);
  for (uint8_t B : Z)
    ASSERT_EQ(B, 0);
  EXPECT_FALSE(M == GuestMemory(2 * Page + 3));
}

TEST(GuestMemory, EmptyBuffers) {
  GuestMemory A;
  GuestMemory B(0);
  EXPECT_TRUE(A.empty());
  EXPECT_EQ(B.data(), nullptr);
  EXPECT_TRUE(A == B);
  EXPECT_EQ(A.begin(), A.end());
  GuestMemory C = A;
  EXPECT_TRUE(C.empty());
}
