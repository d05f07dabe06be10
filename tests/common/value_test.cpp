#include "common/value.hpp"

#include <gtest/gtest.h>

namespace strata {
namespace {

class TestOpaque final : public OpaqueValue {
 public:
  explicit TestOpaque(int id) : id_(id) {}
  [[nodiscard]] const char* TypeName() const noexcept override {
    return "TestOpaque";
  }
  [[nodiscard]] std::size_t ApproxBytes() const noexcept override {
    return 1234;
  }
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  int id_;
};

TEST(Value, KindsAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(true).AsBool(), true);
  EXPECT_EQ(Value(42).AsInt(), 42);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value("hello").AsString(), "hello");
  EXPECT_EQ(Value(Blob{1, 2, 3}).AsBlob(), (Blob{1, 2, 3}));
}

TEST(Value, IntWidensToDouble) {
  EXPECT_DOUBLE_EQ(Value(7).AsDouble(), 7.0);
}

TEST(Value, MismatchedAccessThrows) {
  EXPECT_THROW((void)Value(1).AsString(), std::runtime_error);
  EXPECT_THROW((void)Value("x").AsInt(), std::runtime_error);
  EXPECT_THROW((void)Value(1.5).AsInt(), std::runtime_error);
  EXPECT_THROW((void)Value().AsBool(), std::runtime_error);
}

TEST(Value, OpaqueRoundTrip) {
  auto obj = std::make_shared<const TestOpaque>(9);
  Value v{OpaqueRef(obj)};
  EXPECT_EQ(v.kind(), ValueKind::kOpaque);
  EXPECT_EQ(v.AsOpaque<TestOpaque>()->id(), 9);
  EXPECT_GE(v.ApproxBytes(), 1234u);
}

TEST(Value, OpaqueDowncastMismatchThrows) {
  class Other final : public OpaqueValue {
   public:
    [[nodiscard]] const char* TypeName() const noexcept override { return "o"; }
    [[nodiscard]] std::size_t ApproxBytes() const noexcept override { return 0; }
  };
  Value v{OpaqueRef(std::make_shared<const Other>())};
  EXPECT_THROW(v.AsOpaque<TestOpaque>(), std::runtime_error);
}

TEST(Value, Equality) {
  EXPECT_EQ(Value(1), Value(1));
  EXPECT_FALSE(Value(1) == Value(2));
  EXPECT_FALSE(Value(1) == Value(1.0));  // kinds differ
  EXPECT_EQ(Value("a"), Value("a"));
}

TEST(Value, ToStringFormats) {
  EXPECT_EQ(Value().ToString(), "null");
  EXPECT_EQ(Value(true).ToString(), "true");
  EXPECT_EQ(Value(3).ToString(), "3");
  EXPECT_EQ(Value("s").ToString(), "\"s\"");
  EXPECT_EQ(Value(Blob{1, 2}).ToString(), "blob[2B]");
}

TEST(Payload, SetGetOverwrite) {
  Payload p;
  p.Set("a", 1);
  p.Set("b", "two");
  EXPECT_EQ(p.Get("a").AsInt(), 1);
  EXPECT_EQ(p.Get("b").AsString(), "two");
  p.Set("a", 10);
  EXPECT_EQ(p.Get("a").AsInt(), 10);
  EXPECT_EQ(p.size(), 2u);
}

TEST(Payload, FindAndHas) {
  Payload p{{"k", Value(5)}};
  EXPECT_TRUE(p.Has("k"));
  EXPECT_FALSE(p.Has("missing"));
  EXPECT_EQ(p.Find("missing"), nullptr);
  EXPECT_THROW((void)p.Get("missing"), std::out_of_range);
}

TEST(Payload, PreservesInsertionOrder) {
  Payload p;
  p.Set("z", 1);
  p.Set("a", 2);
  p.Set("m", 3);
  std::vector<std::string> keys;
  for (const auto& [k, v] : p) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<std::string>{"z", "a", "m"}));
}

TEST(Payload, Erase) {
  Payload p{{"a", Value(1)}, {"b", Value(2)}};
  EXPECT_TRUE(p.Erase("a"));
  EXPECT_FALSE(p.Erase("a"));
  EXPECT_EQ(p.size(), 1u);
}

TEST(Payload, MergeDisjointSucceeds) {
  Payload a{{"x", Value(1)}};
  Payload b{{"y", Value(2)}};
  ASSERT_TRUE(a.MergeDisjoint(b).ok());
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.Get("y").AsInt(), 2);
}

TEST(Payload, MergeDisjointRejectsDuplicateAndLeavesTargetUnchanged) {
  Payload a{{"x", Value(1)}, {"w", Value(0)}};
  Payload b{{"y", Value(2)}, {"x", Value(3)}};
  Status s = a.MergeDisjoint(b);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(a.size(), 2u);  // atomic: nothing from b landed
  EXPECT_EQ(a.Get("x").AsInt(), 1);
}

TEST(Payload, MergeCompatibleDeduplicatesEqualValues) {
  Payload a{{"x", Value(1)}, {"shared", Value("same")}};
  Payload b{{"y", Value(2)}, {"shared", Value("same")}};
  ASSERT_TRUE(a.MergeCompatible(b).ok());
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.Get("shared").AsString(), "same");
  EXPECT_EQ(a.Get("y").AsInt(), 2);
}

TEST(Payload, MergeCompatibleRejectsConflictAtomically) {
  Payload a{{"x", Value(1)}, {"shared", Value(1)}};
  Payload b{{"y", Value(2)}, {"shared", Value(9)}};
  EXPECT_EQ(a.MergeCompatible(b).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(a.size(), 2u);  // nothing from b landed
  EXPECT_FALSE(a.Has("y"));
}

// The scalar Value codec that the tuple codec writes every scalar payload
// value with (spe/codec.hpp tests the whole tuple).
TEST(PayloadCodec, RoundTripAllScalarKinds) {
  Payload p;
  p.Set("null", Value());
  p.Set("bool", true);
  p.Set("int", std::int64_t{-1234567890123});
  p.Set("double", 3.14159);
  p.Set("string", "text");
  p.Set("blob", Blob{0, 255, 7});

  std::string buf;
  for (const auto& [key, value] : p) ASSERT_TRUE(EncodeValue(value, &buf).ok());
  std::string_view in(buf);
  Payload decoded;
  for (const auto& [key, value] : p) {
    Value v;
    ASSERT_TRUE(DecodeValue(&in, &v).ok()) << key;
    decoded.Set(key, std::move(v));
  }
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(p, decoded);
}

TEST(PayloadCodec, OpaqueIsNotSerializable) {
  const Value opaque(OpaqueRef(std::make_shared<const TestOpaque>(1)));
  std::string buf;
  EXPECT_EQ(EncodeValue(opaque, &buf).code(), StatusCode::kInvalidArgument);
  // The opaque kind byte is not a scalar value either.
  std::string_view in("\x06", 1);
  Value v;
  EXPECT_EQ(DecodeValue(&in, &v).code(), StatusCode::kCorruption);
}

TEST(PayloadCodec, DecodeRejectsTruncation) {
  for (const Value& value :
       {Value("value"), Value(std::int64_t{1} << 40), Value(2.5),
        Value(Blob{1, 2, 3}), Value(true)}) {
    std::string buf;
    ASSERT_TRUE(EncodeValue(value, &buf).ok());
    for (std::size_t cut = 1; cut <= buf.size(); ++cut) {
      std::string_view in(buf.data(), buf.size() - cut);
      Value out;
      EXPECT_FALSE(DecodeValue(&in, &out).ok())
          << value.ToString() << " cut=" << cut;
    }
  }
}

}  // namespace
}  // namespace strata
