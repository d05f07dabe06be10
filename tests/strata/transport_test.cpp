#include "strata/transport.hpp"

#include <gtest/gtest.h>

#include "am/image.hpp"
#include "clustering/report.hpp"

namespace strata::core {
namespace {

spe::Tuple FullTuple() {
  spe::Tuple t;
  t.event_time = 123456789;
  t.job = 7;
  t.layer = 42;
  t.specimen = 3;
  t.portion = 9;
  t.stimulus = 987654;
  t.payload.Set("double", 3.5);
  t.payload.Set("int", std::int64_t{-12});
  t.payload.Set("string", "hello");
  t.payload.Set("bool", true);
  return t;
}

/// FullTuple plus both opaque payload types the codec knows: an OT frame
/// and a cluster report with its rendering.
spe::Tuple OpaqueTuple() {
  spe::Tuple t = FullTuple();
  am::GrayImage image(8, 8);
  image.set(2, 3, 77);
  t.payload.Set("ot_image", am::MakeImageValue(image));
  cluster::ClusterReport report;
  report.job = 7;
  report.layer = 42;
  report.window_events = 5;
  cluster::ClusterSummary summary;
  summary.point_count = 5;
  summary.centroid_x = 1.5;
  report.clusters.push_back(summary);
  am::GrayImage rendering(3, 2);
  rendering.set(1, 1, 9);
  report.rendering = std::make_shared<const am::GrayImage>(rendering);
  OpaqueRef wrapped =
      std::make_shared<const cluster::ClusterReportValue>(std::move(report));
  t.payload.Set("report", Value(std::move(wrapped)));
  return t;
}

TEST(TupleTransport, ScalarRoundTrip) {
  const spe::Tuple original = FullTuple();
  std::string encoded;
  ASSERT_TRUE(EncodeTuple(original, &encoded).ok());
  auto decoded = DecodeTuple(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->event_time, original.event_time);
  EXPECT_EQ(decoded->job, original.job);
  EXPECT_EQ(decoded->layer, original.layer);
  EXPECT_EQ(decoded->specimen, original.specimen);
  EXPECT_EQ(decoded->portion, original.portion);
  EXPECT_EQ(decoded->stimulus, original.stimulus);
  EXPECT_EQ(decoded->payload, original.payload);
}

TEST(TupleTransport, ImagePayloadRoundTrip) {
  am::GrayImage image(32, 16);
  image.set(5, 5, 200);
  spe::Tuple t;
  t.job = 1;
  t.layer = 2;
  t.payload.Set("ot_image", am::MakeImageValue(image));
  t.payload.Set("angle", 45.0);

  std::string encoded;
  ASSERT_TRUE(EncodeTuple(t, &encoded).ok());
  auto decoded = DecodeTuple(encoded);
  ASSERT_TRUE(decoded.ok());
  const auto unwrapped =
      decoded->payload.Get("ot_image").AsOpaque<am::ImageValue>();
  EXPECT_EQ(unwrapped->image(), image);
  EXPECT_DOUBLE_EQ(decoded->payload.Get("angle").AsDouble(), 45.0);
}

TEST(TupleTransport, UnsupportedOpaqueRejected) {
  class Other final : public OpaqueValue {
   public:
    [[nodiscard]] const char* TypeName() const noexcept override { return "x"; }
    [[nodiscard]] std::size_t ApproxBytes() const noexcept override { return 0; }
  };
  spe::Tuple t;
  t.payload.Set("bad", Value(OpaqueRef(std::make_shared<const Other>())));
  std::string encoded;
  const Status s = EncodeTuple(t, &encoded);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("'x'"), std::string::npos) << s.ToString();
}

TEST(TupleTransport, UnsetMetadataSurvives) {
  spe::Tuple t;  // all ids unset (-1)
  std::string encoded;
  ASSERT_TRUE(EncodeTuple(t, &encoded).ok());
  auto decoded = DecodeTuple(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->job, spe::kUnsetId);
  EXPECT_EQ(decoded->specimen, spe::kUnsetId);
}

TEST(TupleTransport, DecodeRejectsTruncation) {
  const spe::Tuple original = FullTuple();
  std::string encoded;
  ASSERT_TRUE(EncodeTuple(original, &encoded).ok());
  for (std::size_t cut = 1; cut <= encoded.size(); cut += 3) {
    EXPECT_FALSE(
        DecodeTuple(std::string_view(encoded.data(), encoded.size() - cut))
            .ok())
        << "cut=" << cut;
  }
}

TEST(TupleTransport, DecodeRejectsTrailingBytes) {
  std::string encoded;
  ASSERT_TRUE(EncodeTuple(FullTuple(), &encoded).ok());
  encoded += "junk";
  EXPECT_FALSE(DecodeTuple(encoded).ok());
}

// Property: any single-bit flip in an encoded tuple decodes to a Status
// error, never to a crash or a silently different tuple (the CRC trailer
// catches flips the structural checks cannot, e.g. inside a double).
TEST(TupleTransport, AnySingleBitFlipIsRejected) {
  std::string encoded;
  ASSERT_TRUE(EncodeTuple(OpaqueTuple(), &encoded).ok());

  for (std::size_t byte = 0; byte < encoded.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = encoded;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      auto decoded = DecodeTuple(mutated);
      EXPECT_FALSE(decoded.ok())
          << "bit " << bit << " of byte " << byte << " flipped undetected";
    }
  }
}

// Property: random multi-byte mutations (splices, overwrites, duplications)
// also surface as Status errors. Deterministic LCG, no seed flakiness.
TEST(TupleTransport, RandomMutationsAreRejected) {
  std::string encoded;
  ASSERT_TRUE(EncodeTuple(OpaqueTuple(), &encoded).ok());

  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  auto next = [&rng]() {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return rng >> 33;
  };
  for (int round = 0; round < 2000; ++round) {
    std::string mutated = encoded;
    const int kind = static_cast<int>(next() % 3);
    const std::size_t pos = next() % mutated.size();
    switch (kind) {
      case 0:  // overwrite a byte
        mutated[pos] = static_cast<char>(next() & 0xff);
        break;
      case 1:  // delete a byte
        mutated.erase(pos, 1);
        break;
      default:  // insert a byte
        mutated.insert(pos, 1, static_cast<char>(next() & 0xff));
        break;
    }
    if (mutated == encoded) continue;  // overwrite happened to be identical
    auto decoded = DecodeTuple(mutated);
    EXPECT_FALSE(decoded.ok()) << "round " << round << " kind " << kind
                               << " pos " << pos << " slipped through";
  }
}

// ----- seq tagging: the effectively-once wire format -----

TEST(TaggedTransport, TaggedRoundTripCarriesSeq) {
  const spe::Tuple original = FullTuple();
  std::string encoded;
  ASSERT_TRUE(EncodeTaggedTuple(17, original, &encoded).ok());

  std::uint64_t seq = 0;
  auto decoded = DecodeTaggedTuple(encoded, &seq);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(seq, 17u);
  EXPECT_EQ(decoded->event_time, original.event_time);
  EXPECT_EQ(decoded->payload, original.payload);
}

TEST(TaggedTransport, UntaggedRecordsDecodeWithZeroTag) {
  // A publisher that is not tagging writes seq 0; the record layout is the
  // same, so one parse reads both.
  std::string encoded;
  ASSERT_TRUE(EncodeTaggedTuple(0, FullTuple(), &encoded).ok());
  std::uint64_t seq = 99;
  auto decoded = DecodeTaggedTuple(encoded, &seq);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(seq, 0u) << "untagged record must zero the tag";
  EXPECT_EQ(decoded->payload, FullTuple().payload);
}

TEST(TaggedTransport, AnySingleBitFlipIsRejected) {
  std::string encoded;
  ASSERT_TRUE(EncodeTaggedTuple(123456, FullTuple(), &encoded).ok());
  for (std::size_t byte = 0; byte < encoded.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = encoded;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      std::uint64_t seq = 0;
      // Either rejected outright, or (a flip in the tag varint) decoded
      // with a different tag — but never a silently different tuple.
      auto decoded = DecodeTaggedTuple(mutated, &seq);
      if (decoded.ok()) {
        EXPECT_EQ(decoded->payload, FullTuple().payload)
            << "bit " << bit << " of byte " << byte << " corrupted the tuple";
      }
    }
  }
}

TEST(PartitionKeys, RawKeyGroupsByJobAndLayer) {
  spe::Tuple t;
  t.job = 3;
  t.layer = 14;
  EXPECT_EQ(RawDataKey(t), "3|14");
}

TEST(PartitionKeys, EventKeyGroupsByJobAndSpecimen) {
  spe::Tuple t;
  t.job = 3;
  t.specimen = 5;
  EXPECT_EQ(EventKey(t), "3|5");
}

}  // namespace
}  // namespace strata::core
