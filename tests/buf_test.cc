// Unit tests for the zero-copy buffer plane (src/buf): alias semantics,
// rope concatenation, the builder, and the process-global copy accounting
// that the benches gate on.
#include "buf/bytes.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

namespace pstk::buf {
namespace {

StatsSnapshot Delta(const StatsSnapshot& before) {
  const StatsSnapshot now = SnapshotStats();
  StatsSnapshot d;
  d.chunks_allocated = now.chunks_allocated - before.chunks_allocated;
  d.chunks_aliased = now.chunks_aliased - before.chunks_aliased;
  d.copies = now.copies - before.copies;
  d.copy_bytes = now.copy_bytes - before.copy_bytes;
  return d;
}

TEST(BytesTest, DefaultIsEmptyAndFlat) {
  Bytes b;
  EXPECT_TRUE(b.empty());
  EXPECT_TRUE(b.flat());
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.chunk_count(), 0u);
  EXPECT_EQ(b.view(), "");
  EXPECT_EQ(b.ToString(), "");
}

TEST(BytesTest, CopyIsOneCountedAllocation) {
  const StatsSnapshot before = SnapshotStats();
  const Bytes b = Bytes::Copy("hello world");
  const StatsSnapshot d = Delta(before);
  EXPECT_EQ(b.view(), "hello world");
  EXPECT_TRUE(b.flat());
  EXPECT_EQ(d.chunks_allocated, 1u);
  EXPECT_EQ(d.copies, 1u);
  EXPECT_EQ(d.copy_bytes, 11u);
}

TEST(BytesTest, FromStringTakesOwnershipWithoutCopying) {
  std::string payload(1024, 'x');
  const char* storage = payload.data();
  const StatsSnapshot before = SnapshotStats();
  const Bytes b = Bytes::FromString(std::move(payload));
  const StatsSnapshot d = Delta(before);
  EXPECT_EQ(b.size(), 1024u);
  EXPECT_EQ(reinterpret_cast<const char*>(b.data()), storage);
  EXPECT_EQ(d.chunks_allocated, 1u);
  EXPECT_EQ(d.copies, 0u);
}

TEST(BytesTest, FromVectorTakesOwnershipWithoutCopying) {
  std::vector<std::uint8_t> payload = {1, 2, 3, 4};
  const std::uint8_t* storage = payload.data();
  const StatsSnapshot before = SnapshotStats();
  const Bytes b = Bytes::FromVector(std::move(payload));
  const StatsSnapshot d = Delta(before);
  EXPECT_EQ(b.size(), 4u);
  EXPECT_EQ(b.data(), storage);
  EXPECT_EQ(d.copies, 0u);
}

TEST(BytesTest, GenerateFillsOneUncountedChunk) {
  const StatsSnapshot before = SnapshotStats();
  const Bytes b = Bytes::Generate(5, [](std::uint8_t* out) {
    for (int i = 0; i < 5; ++i) out[i] = static_cast<std::uint8_t>('a' + i);
  });
  const StatsSnapshot d = Delta(before);
  EXPECT_EQ(b.view(), "abcde");
  EXPECT_EQ(d.chunks_allocated, 1u);
  EXPECT_EQ(d.copies, 0u);
  bool called = false;
  EXPECT_TRUE(Bytes::Generate(0, [&](std::uint8_t*) { called = true; })
                  .empty());
  EXPECT_FALSE(called);
}

TEST(BytesTest, SliceAliasesStorage) {
  const Bytes b = Bytes::Copy("abcdefgh");
  const StatsSnapshot before = SnapshotStats();
  const Bytes mid = b.Slice(2, 4);
  const StatsSnapshot d = Delta(before);
  EXPECT_EQ(mid.view(), "cdef");
  EXPECT_EQ(mid.data(), b.data() + 2);  // same allocation, no copy
  EXPECT_EQ(d.copies, 0u);
  EXPECT_EQ(d.chunks_allocated, 0u);
  EXPECT_GE(d.chunks_aliased, 1u);
}

TEST(BytesTest, SliceNposRunsToEnd) {
  const Bytes b = Bytes::Copy("abcdefgh");
  EXPECT_EQ(b.Slice(5).view(), "fgh");
  EXPECT_EQ(b.Slice(0).view(), "abcdefgh");
  EXPECT_EQ(b.Slice(8).size(), 0u);
}

TEST(BytesTest, SliceOfSliceComposesOffsets) {
  const Bytes b = Bytes::Copy("0123456789");
  const Bytes inner = b.Slice(2, 6).Slice(1, 3);
  EXPECT_EQ(inner.view(), "345");
  EXPECT_EQ(inner.data(), b.data() + 3);
}

TEST(BytesTest, SliceKeepsChunkAliveAfterSourceDies) {
  Bytes tail;
  {
    Bytes whole = Bytes::Copy("the quick brown fox");
    tail = whole.Slice(10);
  }  // `whole` destroyed; the chunk survives via the slice's refcount
  EXPECT_EQ(tail.view(), "brown fox");
}

TEST(BytesTest, ConcatIsRopeWithoutCopy) {
  const Bytes a = Bytes::Copy("hello ");
  const Bytes b = Bytes::Copy("world");
  const StatsSnapshot before = SnapshotStats();
  const Bytes joined = Bytes::Concat({a, b});
  const StatsSnapshot d = Delta(before);
  EXPECT_EQ(joined.size(), 11u);
  EXPECT_FALSE(joined.flat());
  EXPECT_EQ(joined.chunk_count(), 2u);
  EXPECT_EQ(joined.ToString(), "hello world");
  EXPECT_EQ(d.copies, 0u);
}

TEST(BytesTest, ConcatCoalescesAdjacentSlicesToFlat) {
  // Re-concatenating consecutive slices of one chunk must yield a flat
  // buffer again — this is what makes ReadAll of one installed file flat.
  const Bytes whole = Bytes::Copy("abcdefghij");
  const Bytes joined =
      Bytes::Concat({whole.Slice(0, 3), whole.Slice(3, 4), whole.Slice(7)});
  EXPECT_TRUE(joined.flat());
  EXPECT_EQ(joined.view(), "abcdefghij");
  EXPECT_EQ(joined.data(), whole.data());
}

TEST(BytesTest, SliceAcrossRopeSpans) {
  const Bytes joined =
      Bytes::Concat({Bytes::Copy("aaa"), Bytes::Copy("bbb"), Bytes::Copy("ccc")});
  const Bytes cut = joined.Slice(2, 5);
  EXPECT_EQ(cut.ToString(), "abbbc");
  EXPECT_FALSE(cut.flat());
  const Bytes inside = joined.Slice(3, 3);  // exactly the middle span
  EXPECT_TRUE(inside.flat());
  EXPECT_EQ(inside.view(), "bbb");
}

TEST(BytesTest, FlattenRopeCopiesOnceFlatAliases) {
  const Bytes rope = Bytes::Concat({Bytes::Copy("foo"), Bytes::Copy("bar")});
  StatsSnapshot before = SnapshotStats();
  const Bytes flat = rope.Flatten();
  StatsSnapshot d = Delta(before);
  EXPECT_TRUE(flat.flat());
  EXPECT_EQ(flat.view(), "foobar");
  EXPECT_EQ(d.copies, 1u);
  EXPECT_EQ(d.copy_bytes, 6u);

  before = SnapshotStats();
  const Bytes again = flat.Flatten();
  d = Delta(before);
  EXPECT_EQ(again.data(), flat.data());  // already flat: alias, no copy
  EXPECT_EQ(d.copies, 0u);
}

TEST(BytesTest, CopyToAndEquality) {
  const Bytes rope = Bytes::Concat({Bytes::Copy("ab"), Bytes::Copy("cd")});
  char out[4];
  rope.CopyTo(out);
  EXPECT_EQ(std::string_view(out, 4), "abcd");
  EXPECT_TRUE(rope.Equals("abcd"));
  EXPECT_FALSE(rope.Equals("abce"));
  EXPECT_FALSE(rope.Equals("abc"));
  EXPECT_EQ(rope, Bytes::Copy("abcd"));  // flat vs rope, same content
  EXPECT_NE(rope, Bytes::Copy("xbcd"));
  EXPECT_EQ(rope, std::string_view("abcd"));
  EXPECT_EQ(std::string_view("abcd"), rope);
}

TEST(BytesTest, ForEachChunkVisitsSpansInOrder) {
  const Bytes rope = Bytes::Concat({Bytes::Copy("one"), Bytes::Copy("two")});
  std::vector<std::string> spans;
  rope.ForEachChunk([&](std::string_view s) { spans.emplace_back(s); });
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0], "one");
  EXPECT_EQ(spans[1], "two");
}

TEST(BuilderTest, AppendStringViewBatchesIntoOneChunk) {
  Builder builder;
  const StatsSnapshot before = SnapshotStats();
  builder.Append("hello ");
  builder.Append("world");
  EXPECT_EQ(builder.size(), 11u);
  const Bytes built = builder.Build();
  const StatsSnapshot d = Delta(before);
  EXPECT_EQ(built.ToString(), "hello world");
  // Both appends land in one pending chunk: one allocation, not two.
  EXPECT_EQ(d.chunks_allocated, 1u);
}

TEST(BuilderTest, AppendBytesSplicesWithoutCopy) {
  const Bytes block = Bytes::Copy("0123456789");
  Builder builder;
  const StatsSnapshot before = SnapshotStats();
  builder.Append(block.Slice(0, 5));
  builder.Append(block.Slice(5));
  const Bytes built = builder.Build();
  const StatsSnapshot d = Delta(before);
  EXPECT_EQ(d.copies, 0u);  // pure splice
  EXPECT_TRUE(built.flat());  // adjacent slices coalesce
  EXPECT_EQ(built.view(), "0123456789");
  EXPECT_EQ(built.data(), block.data());
}

TEST(BuilderTest, MixedAppendsPreserveOrderAndReset) {
  const Bytes mid = Bytes::Copy("-mid-");
  Builder builder;
  builder.Append("head");
  builder.Append(mid);
  builder.Append("tail");
  EXPECT_EQ(builder.Build().ToString(), "head-mid-tail");
  // Build() resets: the builder is reusable.
  EXPECT_EQ(builder.size(), 0u);
  builder.Append("again");
  EXPECT_EQ(builder.Build().ToString(), "again");
}

TEST(StatsTest, CopyHistogramBucketsByLog2Size) {
  const StatsSnapshot before = SnapshotStats();
  (void)Bytes::Copy(std::string(100, 'a'));   // bit width 7  -> bucket 39
  (void)Bytes::Copy(std::string(5000, 'b'));  // bit width 13 -> bucket 45
  const StatsSnapshot now = SnapshotStats();
  EXPECT_EQ(now.copy_hist[39] - before.copy_hist[39], 1u);
  EXPECT_EQ(now.copy_hist[45] - before.copy_hist[45], 1u);
  EXPECT_EQ(now.copy_bytes - before.copy_bytes, 5100u);
}

}  // namespace
}  // namespace pstk::buf
