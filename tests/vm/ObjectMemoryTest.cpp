//===- tests/vm/ObjectMemoryTest.cpp ----------------------------------------===//

#include "vm/ObjectMemory.h"

#include <gtest/gtest.h>

using namespace igdt;

namespace {

class ObjectMemoryTest : public ::testing::Test {
protected:
  ObjectMemory Mem{256 * 1024};
};

TEST_F(ObjectMemoryTest, SmallIntTagging) {
  Oop V = smallIntOop(42);
  EXPECT_TRUE(isSmallIntOop(V));
  EXPECT_EQ(smallIntValue(V), 42);
  EXPECT_EQ(smallIntValue(smallIntOop(-42)), -42);
  EXPECT_EQ(smallIntValue(smallIntOop(MaxSmallInt)), MaxSmallInt);
  EXPECT_EQ(smallIntValue(smallIntOop(MinSmallInt)), MinSmallInt);
}

TEST_F(ObjectMemoryTest, SmallIntRange) {
  EXPECT_TRUE(fitsSmallInt(0));
  EXPECT_TRUE(fitsSmallInt(MaxSmallInt));
  EXPECT_FALSE(fitsSmallInt(MaxSmallInt + 1));
  EXPECT_TRUE(fitsSmallInt(MinSmallInt));
  EXPECT_FALSE(fitsSmallInt(MinSmallInt - 1));
}

TEST_F(ObjectMemoryTest, WellKnownObjectsExist) {
  EXPECT_TRUE(Mem.isHeapObject(Mem.nilObject()));
  EXPECT_TRUE(Mem.isHeapObject(Mem.trueObject()));
  EXPECT_TRUE(Mem.isHeapObject(Mem.falseObject()));
  EXPECT_EQ(Mem.classIndexOf(Mem.nilObject()), UndefinedObjectClass);
  EXPECT_EQ(Mem.classIndexOf(Mem.trueObject()), TrueClass);
  EXPECT_EQ(Mem.classIndexOf(Mem.falseObject()), FalseClass);
  EXPECT_EQ(Mem.booleanObject(true), Mem.trueObject());
  EXPECT_EQ(Mem.booleanObject(false), Mem.falseObject());
}

TEST_F(ObjectMemoryTest, ClassIndexOfImmediates) {
  EXPECT_EQ(Mem.classIndexOf(smallIntOop(7)), SmallIntegerClass);
}

TEST_F(ObjectMemoryTest, AllocateArray) {
  Oop Arr = Mem.allocateInstance(ArrayClass, 5);
  ASSERT_TRUE(Mem.isHeapObject(Arr));
  EXPECT_EQ(Mem.classIndexOf(Arr), ArrayClass);
  EXPECT_EQ(Mem.slotCountOf(Arr), 5u);
  EXPECT_EQ(Mem.formatOf(Arr), ObjectFormat::IndexablePointers);
  // Slots start as nil.
  for (std::uint32_t I = 0; I < 5; ++I)
    EXPECT_EQ(*Mem.fetchPointerSlot(Arr, I), Mem.nilObject());
}

TEST_F(ObjectMemoryTest, SlotAccessBounds) {
  Oop Arr = Mem.allocateInstance(ArrayClass, 2);
  EXPECT_TRUE(Mem.fetchPointerSlot(Arr, 1).has_value());
  EXPECT_FALSE(Mem.fetchPointerSlot(Arr, 2).has_value());
  EXPECT_TRUE(Mem.storePointerSlot(Arr, 0, smallIntOop(9)));
  EXPECT_FALSE(Mem.storePointerSlot(Arr, 2, smallIntOop(9)));
  EXPECT_EQ(*Mem.fetchPointerSlot(Arr, 0), smallIntOop(9));
}

TEST_F(ObjectMemoryTest, SlotAccessOnNonPointerObjectFails) {
  Oop Bytes = Mem.allocateInstance(ByteArrayClass, 4);
  EXPECT_FALSE(Mem.fetchPointerSlot(Bytes, 0).has_value());
  EXPECT_FALSE(Mem.fetchPointerSlot(smallIntOop(1), 0).has_value());
}

TEST_F(ObjectMemoryTest, ByteAccess) {
  Oop Bytes = Mem.allocateInstance(ByteArrayClass, 3);
  EXPECT_TRUE(Mem.storeByte(Bytes, 2, 0xAB));
  EXPECT_EQ(*Mem.fetchByte(Bytes, 2), 0xAB);
  EXPECT_FALSE(Mem.fetchByte(Bytes, 3).has_value());
  EXPECT_FALSE(Mem.storeByte(Bytes, 3, 0));
  // Byte access on a pointers object fails.
  Oop Arr = Mem.allocateInstance(ArrayClass, 1);
  EXPECT_FALSE(Mem.fetchByte(Arr, 0).has_value());
}

TEST_F(ObjectMemoryTest, BoxedFloats) {
  Oop F = Mem.allocateFloat(3.25);
  ASSERT_TRUE(Mem.isBoxedFloat(F));
  EXPECT_EQ(*Mem.floatValueOf(F), 3.25);
  EXPECT_FALSE(Mem.floatValueOf(smallIntOop(1)).has_value());
  EXPECT_FALSE(Mem.floatValueOf(Mem.nilObject()).has_value());
}

TEST_F(ObjectMemoryTest, UnsafeFloatReadProducesGarbageNotCrash) {
  Oop Arr = Mem.allocateInstance(ArrayClass, 1);
  // Reading the body of a non-float object as a double succeeds (returns
  // whatever bits are there) — this models the missing-type-check bug.
  EXPECT_TRUE(Mem.unsafeFloatValueAt(Arr).has_value());
  // Reading from a tagged smallint faults (unaligned address).
  EXPECT_FALSE(Mem.unsafeFloatValueAt(smallIntOop(100)).has_value());
}

TEST_F(ObjectMemoryTest, Strings) {
  Oop S = Mem.allocateString("hi!");
  EXPECT_EQ(Mem.classIndexOf(S), ByteStringClass);
  EXPECT_EQ(Mem.slotCountOf(S), 3u);
  EXPECT_EQ(*Mem.fetchByte(S, 0), 'h');
  EXPECT_EQ(*Mem.fetchByte(S, 2), '!');
}

TEST_F(ObjectMemoryTest, FixedSlotClass) {
  Oop P = Mem.allocateInstance(PointClass);
  EXPECT_EQ(Mem.slotCountOf(P), 2u);
  EXPECT_EQ(Mem.formatOf(P), ObjectFormat::Pointers);
}

TEST_F(ObjectMemoryTest, IdentityHashesAreStableAndMostlyDistinct) {
  Oop A = Mem.allocateInstance(ArrayClass, 1);
  Oop B = Mem.allocateInstance(ArrayClass, 1);
  EXPECT_EQ(Mem.identityHashOf(A), Mem.identityHashOf(A));
  EXPECT_NE(Mem.identityHashOf(A), Mem.identityHashOf(B));
}

TEST_F(ObjectMemoryTest, HeapExhaustionReturnsInvalid) {
  ObjectMemory Tiny(1024);
  Oop Last = InvalidOop;
  for (int I = 0; I < 100; ++I)
    Last = Tiny.allocateInstance(ArrayClass, 16);
  EXPECT_EQ(Last, InvalidOop);
}

TEST_F(ObjectMemoryTest, RawLoadStoreRespectBounds) {
  Oop Arr = Mem.allocateInstance(ArrayClass, 2);
  std::uint64_t Body = ObjectMemory::bodyAddress(Arr);
  ASSERT_TRUE(Mem.load64(Body).has_value());
  EXPECT_TRUE(Mem.store64(Body, 0x1234));
  EXPECT_EQ(*Mem.load64(Body), 0x1234u);
  // Misaligned.
  EXPECT_FALSE(Mem.load64(Body + 1).has_value());
  // Far out of bounds.
  EXPECT_FALSE(Mem.load64(0x10).has_value());
  EXPECT_FALSE(Mem.store64(0x10, 1));
}

TEST_F(ObjectMemoryTest, DescribeValues) {
  EXPECT_EQ(Mem.describe(smallIntOop(-7)), "-7");
  EXPECT_EQ(Mem.describe(Mem.nilObject()), "nil");
  EXPECT_EQ(Mem.describe(Mem.trueObject()), "true");
  EXPECT_EQ(Mem.describe(Mem.allocateFloat(1.5)), "1.5");
  EXPECT_NE(Mem.describe(Mem.allocateInstance(ArrayClass, 3)).find("Array"),
            std::string::npos);
}

/// One object of every format, byte bodies at padded and unpadded sizes.
void allocateOneOfEachFormat(ObjectMemory &Heap) {
  ASSERT_NE(Heap.allocateInstance(PointClass), InvalidOop);
  ASSERT_NE(Heap.allocateInstance(ArrayClass, 3), InvalidOop);
  ASSERT_NE(Heap.allocateInstance(ByteArrayClass, 5), InvalidOop);
  ASSERT_NE(Heap.allocateInstance(ByteArrayClass, 16), InvalidOop);
  ASSERT_NE(Heap.allocateString("abc"), InvalidOop);
  ASSERT_NE(Heap.allocateFloat(2.5), InvalidOop);
  ASSERT_NE(Heap.allocateInstance(ArrayClass, 0), InvalidOop);
}

// The heap's storage is not zero-filled: only the reserved first 16 bytes
// are zeroed, and every other byte below NextFree is written by the
// allocation that hands it out. A heap whose every allocated byte was
// overwritten, reset and re-allocated therefore reads exactly like a fresh
// one.
TEST(ObjectMemoryInvariantTest, ReallocatedDirtyHeapReadsLikeFreshHeap) {
  ObjectMemory Dirty(64 * 1024);
  HeapMark Construction = Dirty.mark();
  allocateOneOfEachFormat(Dirty);
  std::uint64_t End = ObjectMemory::HeapBase + Dirty.usedBytes();
  for (std::uint64_t A = ObjectMemory::HeapBase; A < End; A += 8)
    ASSERT_TRUE(Dirty.store64(A, 0xA5A5A5A5A5A5A5A5ull ^ A));
  for (std::uint64_t A = ObjectMemory::HeapBase + 3; A < End; A += 8)
    ASSERT_TRUE(Dirty.store8(A, 0x5A));
  Dirty.resetTo(Construction);
  allocateOneOfEachFormat(Dirty);

  ObjectMemory Fresh(64 * 1024);
  allocateOneOfEachFormat(Fresh);

  ASSERT_EQ(Dirty.usedBytes(), Fresh.usedBytes());
  EXPECT_EQ(Dirty.contentHash(), Fresh.contentHash());
  End = ObjectMemory::HeapBase + Fresh.usedBytes();
  for (std::uint64_t A = ObjectMemory::HeapBase; A < End; A += 8)
    ASSERT_EQ(*Dirty.load64(A), *Fresh.load64(A)) << std::hex << A;
  for (std::uint64_t A = ObjectMemory::HeapBase; A < End; ++A)
    ASSERT_EQ(*Dirty.load8(A), *Fresh.load8(A)) << std::hex << A;
  EXPECT_FALSE(Fresh.load8(End).has_value());
}

TEST(ObjectMemoryInvariantTest, ReservedBytesOfFreshHeapReadZero) {
  ObjectMemory Fresh(64 * 1024);
  EXPECT_EQ(*Fresh.load64(ObjectMemory::HeapBase), 0u);
  EXPECT_EQ(*Fresh.load64(ObjectMemory::HeapBase + 8), 0u);
  for (std::uint64_t A = ObjectMemory::HeapBase;
       A < ObjectMemory::HeapBase + 16; ++A)
    EXPECT_EQ(*Fresh.load8(A), 0u);
}

} // namespace
