#include "common/value.hpp"

#include <sstream>

#include "common/codec.hpp"

namespace strata {

const char* ValueKindName(ValueKind kind) noexcept {
  switch (kind) {
    case ValueKind::kNull:
      return "null";
    case ValueKind::kBool:
      return "bool";
    case ValueKind::kInt:
      return "int";
    case ValueKind::kDouble:
      return "double";
    case ValueKind::kString:
      return "string";
    case ValueKind::kBlob:
      return "blob";
    case ValueKind::kOpaque:
      return "opaque";
  }
  return "unknown";
}

namespace {
[[noreturn]] void ThrowKindMismatch(ValueKind want, ValueKind got) {
  throw std::runtime_error(std::string("Value: expected ") +
                           ValueKindName(want) + " but holds " +
                           ValueKindName(got));
}
}  // namespace

bool Value::AsBool() const {
  if (const auto* v = std::get_if<bool>(&rep_)) return *v;
  ThrowKindMismatch(ValueKind::kBool, kind());
}

std::int64_t Value::AsInt() const {
  if (const auto* v = std::get_if<std::int64_t>(&rep_)) return *v;
  ThrowKindMismatch(ValueKind::kInt, kind());
}

double Value::AsDouble() const {
  if (const auto* v = std::get_if<double>(&rep_)) return *v;
  if (const auto* i = std::get_if<std::int64_t>(&rep_)) {
    return static_cast<double>(*i);
  }
  ThrowKindMismatch(ValueKind::kDouble, kind());
}

const std::string& Value::AsString() const {
  if (const auto* v = std::get_if<std::string>(&rep_)) return *v;
  ThrowKindMismatch(ValueKind::kString, kind());
}

const Blob& Value::AsBlob() const {
  if (const auto* v = std::get_if<Blob>(&rep_)) return *v;
  ThrowKindMismatch(ValueKind::kBlob, kind());
}

const OpaqueRef& Value::AsOpaqueRef() const {
  if (const auto* v = std::get_if<OpaqueRef>(&rep_)) return *v;
  ThrowKindMismatch(ValueKind::kOpaque, kind());
}

std::size_t Value::ApproxBytes() const noexcept {
  switch (kind()) {
    case ValueKind::kString:
      return sizeof(Value) + std::get<std::string>(rep_).size();
    case ValueKind::kBlob:
      return sizeof(Value) + std::get<Blob>(rep_).size();
    case ValueKind::kOpaque: {
      const auto& ref = std::get<OpaqueRef>(rep_);
      return sizeof(Value) + (ref ? ref->ApproxBytes() : 0);
    }
    default:
      return sizeof(Value);
  }
}

bool operator==(const Value& a, const Value& b) noexcept {
  return a.rep_ == b.rep_;
}

std::string Value::ToString() const {
  std::ostringstream os;
  switch (kind()) {
    case ValueKind::kNull:
      os << "null";
      break;
    case ValueKind::kBool:
      os << (std::get<bool>(rep_) ? "true" : "false");
      break;
    case ValueKind::kInt:
      os << std::get<std::int64_t>(rep_);
      break;
    case ValueKind::kDouble:
      os << std::get<double>(rep_);
      break;
    case ValueKind::kString:
      os << '"' << std::get<std::string>(rep_) << '"';
      break;
    case ValueKind::kBlob:
      os << "blob[" << std::get<Blob>(rep_).size() << "B]";
      break;
    case ValueKind::kOpaque: {
      const auto& ref = std::get<OpaqueRef>(rep_);
      os << "opaque<" << (ref ? ref->TypeName() : "null") << ">";
      break;
    }
  }
  return os.str();
}

void Payload::Set(std::string_view key, Value value) {
  for (auto& [k, v] : entries_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  entries_.emplace_back(std::string(key), std::move(value));
}

bool Payload::Has(std::string_view key) const noexcept {
  return Find(key) != nullptr;
}

const Value* Payload::Find(std::string_view key) const noexcept {
  for (const auto& [k, v] : entries_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Payload::Get(std::string_view key) const {
  if (const Value* v = Find(key)) return *v;
  throw std::out_of_range("Payload: missing key '" + std::string(key) + "'");
}

bool Payload::Erase(std::string_view key) noexcept {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->first == key) {
      entries_.erase(it);
      return true;
    }
  }
  return false;
}

Status Payload::MergeDisjoint(const Payload& other) {
  for (const auto& [k, v] : other) {
    if (Has(k)) {
      return Status::InvalidArgument("Payload::MergeDisjoint: duplicate key '" +
                                     k + "'");
    }
  }
  for (const auto& [k, v] : other) entries_.emplace_back(k, v);
  return Status::Ok();
}

Status Payload::MergeCompatible(const Payload& other) {
  for (const auto& [k, v] : other) {
    if (const Value* existing = Find(k);
        existing != nullptr && !(*existing == v)) {
      return Status::InvalidArgument(
          "Payload::MergeCompatible: conflicting values for key '" + k + "'");
    }
  }
  for (const auto& [k, v] : other) {
    if (!Has(k)) entries_.emplace_back(k, v);
  }
  return Status::Ok();
}

std::size_t Payload::ApproxBytes() const noexcept {
  std::size_t total = sizeof(Payload);
  for (const auto& [k, v] : entries_) total += k.size() + v.ApproxBytes();
  return total;
}

std::string Payload::ToString() const {
  std::string out = "[";
  bool first = true;
  for (const auto& [k, v] : entries_) {
    if (!first) out += ", ";
    first = false;
    out += k + ":" + v.ToString();
  }
  out += "]";
  return out;
}

Status EncodeValue(const Value& value, std::string* out) {
  out->push_back(static_cast<char>(value.kind()));
  switch (value.kind()) {
    case ValueKind::kNull:
      return Status::Ok();
    case ValueKind::kBool:
      out->push_back(value.AsBool() ? 1 : 0);
      return Status::Ok();
    case ValueKind::kInt:
      codec::PutVarint64Signed(out, value.AsInt());
      return Status::Ok();
    case ValueKind::kDouble:
      codec::PutDouble(out, value.AsDouble());
      return Status::Ok();
    case ValueKind::kString:
      codec::PutLengthPrefixed(out, value.AsString());
      return Status::Ok();
    case ValueKind::kBlob: {
      const Blob& b = value.AsBlob();
      codec::PutLengthPrefixed(
          out, std::string_view(reinterpret_cast<const char*>(b.data()),
                                b.size()));
      return Status::Ok();
    }
    case ValueKind::kOpaque:
      return Status::InvalidArgument("cannot serialize opaque Value");
  }
  return Status::InvalidArgument("unknown Value kind");
}

Status DecodeValue(std::string_view* in, Value* out) {
  if (in->empty()) return Status::Corruption("DecodeValue: empty input");
  const auto kind = static_cast<ValueKind>(in->front());
  in->remove_prefix(1);
  switch (kind) {
    case ValueKind::kNull:
      *out = Value();
      return Status::Ok();
    case ValueKind::kBool: {
      if (in->empty()) return Status::Corruption("DecodeValue: bool underflow");
      *out = Value(in->front() != 0);
      in->remove_prefix(1);
      return Status::Ok();
    }
    case ValueKind::kInt: {
      std::int64_t v = 0;
      if (!codec::GetVarint64Signed(in, &v)) {
        return Status::Corruption("DecodeValue: int underflow");
      }
      *out = Value(v);
      return Status::Ok();
    }
    case ValueKind::kDouble: {
      double v = 0;
      if (!codec::GetDouble(in, &v)) {
        return Status::Corruption("DecodeValue: double underflow");
      }
      *out = Value(v);
      return Status::Ok();
    }
    case ValueKind::kString: {
      std::string_view s;
      if (!codec::GetLengthPrefixed(in, &s)) {
        return Status::Corruption("DecodeValue: string underflow");
      }
      *out = Value(std::string(s));
      return Status::Ok();
    }
    case ValueKind::kBlob: {
      std::string_view s;
      if (!codec::GetLengthPrefixed(in, &s)) {
        return Status::Corruption("DecodeValue: blob underflow");
      }
      *out = Value(Blob(s.begin(), s.end()));
      return Status::Ok();
    }
    case ValueKind::kOpaque:
      return Status::Corruption("DecodeValue: opaque kind in serialized data");
  }
  return Status::Corruption("DecodeValue: unknown kind byte");
}

}  // namespace strata
