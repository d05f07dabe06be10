// Dynamic value and payload model shared by the SPE tuples, the pub/sub
// records, and the key-value store.
//
// STRATA tuples carry "an arbitrary number of source-specific key value
// pairs" (paper, Table 1). Payload models that: an ordered sequence of
// (key, Value) pairs. Values are a closed variant of scalar types plus an
// opaque reference type used to pass large in-memory objects (e.g. OT
// images) through a pipeline by pointer instead of by copy.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/status.hpp"

namespace strata {

/// Base for large objects referenced from a Value without copying.
/// Implementations are immutable once shared.
class OpaqueValue {
 public:
  virtual ~OpaqueValue() = default;
  /// Short type tag, used in diagnostics and equality checks.
  [[nodiscard]] virtual const char* TypeName() const noexcept = 0;
  /// Approximate in-memory footprint, for metrics/back-pressure accounting.
  [[nodiscard]] virtual std::size_t ApproxBytes() const noexcept = 0;
};

using OpaqueRef = std::shared_ptr<const OpaqueValue>;
using Blob = std::vector<std::uint8_t>;

enum class ValueKind : std::uint8_t {
  kNull = 0,
  kBool,
  kInt,
  kDouble,
  kString,
  kBlob,
  kOpaque,
};

const char* ValueKindName(ValueKind kind) noexcept;

/// A single dynamically-typed value.
class Value {
 public:
  Value() = default;
  Value(bool v) : rep_(v) {}                          // NOLINT
  Value(std::int64_t v) : rep_(v) {}                  // NOLINT
  Value(int v) : rep_(static_cast<std::int64_t>(v)) {}  // NOLINT
  Value(double v) : rep_(v) {}                        // NOLINT
  Value(std::string v) : rep_(std::move(v)) {}        // NOLINT
  Value(const char* v) : rep_(std::string(v)) {}      // NOLINT
  Value(Blob v) : rep_(std::move(v)) {}               // NOLINT
  Value(OpaqueRef v) : rep_(std::move(v)) {}          // NOLINT

  [[nodiscard]] ValueKind kind() const noexcept {
    return static_cast<ValueKind>(rep_.index());
  }
  [[nodiscard]] bool is_null() const noexcept {
    return kind() == ValueKind::kNull;
  }

  // Checked accessors: throw std::runtime_error on kind mismatch.
  [[nodiscard]] bool AsBool() const;
  [[nodiscard]] std::int64_t AsInt() const;
  [[nodiscard]] double AsDouble() const;  // accepts kInt too (widening)
  [[nodiscard]] const std::string& AsString() const;
  [[nodiscard]] const Blob& AsBlob() const;
  [[nodiscard]] const OpaqueRef& AsOpaqueRef() const;

  /// Downcast the opaque reference to a concrete type; throws on mismatch.
  template <typename T>
  [[nodiscard]] std::shared_ptr<const T> AsOpaque() const {
    auto cast = std::dynamic_pointer_cast<const T>(AsOpaqueRef());
    if (!cast) throw std::runtime_error("Value: opaque type mismatch");
    return cast;
  }

  /// Approximate heap footprint (for queue byte accounting).
  [[nodiscard]] std::size_t ApproxBytes() const noexcept;

  /// Structural equality. Opaque values compare by pointer identity.
  friend bool operator==(const Value& a, const Value& b) noexcept;

  [[nodiscard]] std::string ToString() const;

 private:
  std::variant<std::monostate, bool, std::int64_t, double, std::string, Blob,
               OpaqueRef>
      rep_;
};

/// Ordered key→Value map with insertion-order iteration and linear lookup
/// (payloads are small: a handful of keys).
class Payload {
 public:
  using Entry = std::pair<std::string, Value>;
  using const_iterator = std::vector<Entry>::const_iterator;

  Payload() = default;
  Payload(std::initializer_list<Entry> entries) : entries_(entries) {}

  /// Insert or overwrite.
  void Set(std::string_view key, Value value);
  [[nodiscard]] bool Has(std::string_view key) const noexcept;
  /// nullptr when absent.
  [[nodiscard]] const Value* Find(std::string_view key) const noexcept;
  /// Throws std::out_of_range when absent.
  [[nodiscard]] const Value& Get(std::string_view key) const;
  /// Removes a key if present; returns whether it was present.
  bool Erase(std::string_view key) noexcept;

  /// Append all entries of `other`. Returns InvalidArgument on a duplicate
  /// key: the paper's fuse() "assumes that, for each set of fused tuples,
  /// each key is unique".
  [[nodiscard]] Status MergeDisjoint(const Payload& other);

  /// Like MergeDisjoint, but duplicate keys carrying EQUAL values are
  /// tolerated (deduplicated). Used by fuse(): group-by sub-attributes
  /// legitimately appear on both fused tuples with the same value; only a
  /// conflicting duplicate violates the uniqueness assumption.
  [[nodiscard]] Status MergeCompatible(const Payload& other);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] const_iterator begin() const noexcept { return entries_.begin(); }
  [[nodiscard]] const_iterator end() const noexcept { return entries_.end(); }

  [[nodiscard]] std::size_t ApproxBytes() const noexcept;
  [[nodiscard]] std::string ToString() const;

  friend bool operator==(const Payload& a, const Payload& b) noexcept = default;

 private:
  std::vector<Entry> entries_;
};

/// Binary serialization of one scalar Value: the kind byte, then the value.
/// The tuple codec (spe/codec.hpp) writes every scalar payload value with
/// it and handles opaque values itself; here an opaque value is
/// InvalidArgument on encode and Corruption on decode.
[[nodiscard]] Status EncodeValue(const Value& value, std::string* out);
[[nodiscard]] Status DecodeValue(std::string_view* in, Value* out);

}  // namespace strata
