// Record model of the pub/sub layer (the Kafka substitute used by STRATA's
// Raw Data Connector and Event Connector).
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/clock.hpp"
#include "common/status.hpp"

namespace strata::ps {

/// An immutable byte buffer shared by reference count. Copying a Bytes
/// copies no bytes, and a Slice keeps the whole buffer it views alive.
///
/// A record value is one Bytes from the producer to the consumer: the
/// partition log, every consumer group's read, the fetch response on its
/// way out and the remote client's decoded record all hold the same
/// buffer, or a slice of the frame it arrived in. Nobody can write through
/// it, so sharing needs no lock.
class Bytes {
 public:
  Bytes() = default;
  /// Adopts `bytes` without copying them.
  Bytes(std::string bytes)  // NOLINT(google-explicit-constructor)
      : Bytes(std::make_shared<const std::string>(std::move(bytes))) {}
  Bytes(const char* bytes)  // NOLINT(google-explicit-constructor)
      : Bytes(std::string(bytes)) {}

  /// A fresh buffer holding a copy of `bytes`.
  [[nodiscard]] static Bytes Copy(std::string_view bytes) {
    return Bytes(std::string(bytes));
  }

  /// A fresh, uninitialized buffer of `size` bytes. Its creator fills it
  /// through `*data` before handing the Bytes to anyone else.
  [[nodiscard]] static Bytes Allocate(std::size_t size, char** data) {
    std::shared_ptr<char[]> buffer =
        std::make_shared_for_overwrite<char[]>(size);
    *data = buffer.get();
    return Bytes(std::shared_ptr<const void>(buffer, buffer.get()),
                 buffer.get(), size);
  }

  /// The bytes of `part`, which must lie inside this buffer, sharing it.
  [[nodiscard]] Bytes Slice(std::string_view part) const {
    assert(part.empty() || (part.data() >= data_ &&
                            part.data() + part.size() <= data_ + size_));
    return Bytes(owner_, part.data(), part.size());
  }

  [[nodiscard]] const char* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  operator std::string_view() const noexcept {  // NOLINT
    return {data_, size_};
  }

  friend bool operator==(const Bytes& a, std::string_view b) noexcept {
    return std::string_view(a) == b;
  }

 private:
  explicit Bytes(std::shared_ptr<const std::string> bytes)
      : data_(bytes->data()), size_(bytes->size()), owner_(std::move(bytes)) {}
  Bytes(std::shared_ptr<const void> owner, const char* data, std::size_t size)
      : data_(data), size_(size), owner_(std::move(owner)) {}

  const char* data_ = nullptr;
  std::size_t size_ = 0;
  std::shared_ptr<const void> owner_;
};

/// A produced record before offset assignment.
struct Record {
  std::string key;  // empty = no key (round-robin partitioning)
  Bytes value;      // serialized payload
  Timestamp timestamp = 0;
};

/// A record as stored/consumed: offset and partition assigned by the broker.
struct ConsumedRecord {
  std::string topic;
  int partition = 0;
  std::int64_t offset = 0;
  std::string key;
  Bytes value;
  Timestamp timestamp = 0;
};

/// Serialization used for segment persistence: timestamp, length-prefixed
/// key, length-prefixed value.
void EncodeRecord(const Record& record, std::string* out);
/// Decodes one record; its value is a copy, owned by the record.
[[nodiscard]] Status DecodeRecord(std::string_view* in, Record* out);

}  // namespace strata::ps
