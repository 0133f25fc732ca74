//===- support/Wire.h - Abstract wire codec interface -----------*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The codec abstraction behind `analysis/Serialize`: every schema element
/// of every document family (shard, improve, report, batch report,
/// telemetry, ledger) is written ONCE, as a traversal templated on its
/// codec and compiled for exactly two: `wire::Encoder` and
/// `wire::Decoder`. The same code renders and parses, so the field order
/// written is the field order read, and the two backends -- byte-exact
/// JSON (this file) and the compact HGB binary envelope
/// (`support/WireBinary.h`) -- cannot drift either.
///
/// For that the two classes have one shape: the same method names, every
/// method returning bool (an encoder's always true), and values passed as
/// `Ref<IO, T>` -- `const T &` when encoding, so a traversal that writes
/// to what it renders does not compile, and `T &` when decoding. Checks
/// that only a reader needs sit under `if constexpr (IO::Reads)`.
///
/// `key()` precedes every object field value, in the exact order the JSON
/// bytes must appear. `present()` marks an optional field (JSON: encoded
/// by field absence; binary: one presence byte) and `variant()` a
/// sum-type branch (JSON: encoded by which keys exist; binary: one
/// varint). The JSON encoder reproduces the historical hand-rendered
/// bytes; the binary encoder ignores keys (field identity is positional).
///
/// The JSON decoder resolves `key()` by name against the parsed DOM
/// (field order independent, unknown fields ignored), while the binary
/// decoder reads values sequentially in traversal order. Every decoder
/// method returns false on malformed input and latches a message in
/// `error()`.
///
//===----------------------------------------------------------------------===//

#ifndef HERBGRIND_SUPPORT_WIRE_H
#define HERBGRIND_SUPPORT_WIRE_H

#include "support/Json.h"

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace herbgrind {
namespace wire {

/// Document family tags, embedded in the HGB header so a reader can
/// dispatch without decoding the body. Values are wire-stable: never
/// renumber, only append.
enum class Family : uint8_t {
  Shard = 1,
  Improve = 2,
  Report = 3, ///< A bare presentation-level report ({"spots":...}).
  BatchReport = 4,
  Telemetry = 5,
  Ledger = 6, ///< One run-ledger envelope (engine/RunLedger.h).
};

/// Human-readable family name (for diagnostics and conversion tools).
const char *familyName(Family F);

//===----------------------------------------------------------------------===//
// Encoder
//===----------------------------------------------------------------------===//

class Encoder {
public:
  static constexpr bool Reads = false;

  virtual ~Encoder() = default;

  virtual bool beginObject() = 0;
  virtual bool endObject() = 0;
  /// Arrays carry their element count up front (the binary backend is
  /// length-prefixed; the JSON backend ignores \p Count).
  virtual bool beginArray(uint64_t Count) = 0;
  /// Precedes each array element (a no-op: commas are the JSON backend's
  /// own business).
  bool element() { return true; }
  virtual bool endArray() = 0;
  /// Announces the next object field. Must precede every value inside an
  /// object, in the order the JSON output requires.
  virtual bool key(const char *K) = 0;

  virtual bool u64(uint64_t V) = 0;
  virtual bool i64(int64_t V) = 0;
  /// Doubles are bit-preserving in both backends: shortest round-trip
  /// decimals in JSON, raw IEEE-754 bytes in binary.
  virtual bool dbl(double V) = 0;
  virtual bool boolean(bool V) = 0;
  virtual bool str(const std::string &S) = 0;

  /// Marks whether optional field \p Key follows. JSON encodes presence
  /// by emitting or omitting the field; binary writes one byte. The
  /// traversal still guards the field itself with `if`.
  virtual bool present(const char *Key, bool P) = 0;
  /// Marks which branch of a sum type follows: \p Tag indexes \p Keys,
  /// or is NumKeys for the default branch. JSON encodes the branch by
  /// which keys exist; binary writes a varint.
  virtual bool variant(const char *const *Keys, unsigned NumKeys,
                       unsigned Tag) = 0;

  bool u32(uint32_t V) { return u64(V); }
  bool i32(int32_t V) { return i64(V); }
};

//===----------------------------------------------------------------------===//
// Decoder
//===----------------------------------------------------------------------===//

class Decoder {
public:
  static constexpr bool Reads = true;

  virtual ~Decoder() = default;

  virtual bool beginObject() = 0;
  virtual bool endObject() = 0;
  virtual bool beginArray(uint64_t &Count) = 0;
  /// Positions at the next array element (call exactly Count times).
  virtual bool element() = 0;
  virtual bool endArray() = 0;
  /// Positions at object field \p K. The JSON backend looks it up by
  /// name; the binary backend is positional and only records it for
  /// error messages.
  virtual bool key(const char *K) = 0;

  virtual bool u64(uint64_t &V) = 0;
  virtual bool i64(int64_t &V) = 0;
  virtual bool dbl(double &V) = 0;
  virtual bool boolean(bool &V) = 0;
  virtual bool str(std::string &S) = 0;

  /// Reports whether optional field \p Key is present (JSON: field
  /// lookup; binary: reads the presence byte).
  virtual bool present(const char *Key, bool &P) = 0;
  /// Resolves a sum type: returns the index of the first of
  /// Keys[0..NumKeys-1] present in the current object, or NumKeys for
  /// the default branch (JSON); the binary backend reads the tag varint.
  virtual bool variant(const char *const *Keys, unsigned NumKeys,
                       unsigned &Tag) = 0;

  /// The 32-bit reads are the 64-bit ones plus a range check: a value
  /// that does not fit is an error, never a truncation.
  bool u32(uint32_t &V) {
    uint64_t W;
    if (!u64(W))
      return false;
    if (W > UINT32_MAX)
      return failField("must fit in 32 bits");
    V = static_cast<uint32_t>(W);
    return true;
  }
  bool i32(int32_t &V) {
    int64_t W;
    if (!i64(W))
      return false;
    if (W < INT32_MIN || W > INT32_MAX)
      return failField("must fit in 32 bits");
    V = static_cast<int32_t>(W);
    return true;
  }

  /// Names the schema context for error messages ("op record", ...).
  void setContext(const char *C) { Ctx = C; }
  const char *context() const { return Ctx; }

  const std::string &error() const { return Err; }
  /// Latches \p Msg unless an earlier error already did.
  bool fail(const std::string &Msg) {
    if (Err.empty())
      Err = Msg;
    return false;
  }
  /// Replaces any latched error: for schema-level diagnostics ("unknown
  /// opcode", envelope mismatches) that outrank a generic read failure.
  bool failOver(const std::string &Msg) {
    Err = Msg;
    return false;
  }

protected:
  /// Latches "<context>: field '<key>' <What>" for the field last keyed.
  bool failField(const char *What);

  const char *Ctx = "document";
  const char *LastKey = nullptr;
  std::string Err;
};

/// What a traversal over codec \p IO sees of a \p T: read-only when
/// encoding, writable when decoding.
template <class IO, class T>
using Ref = std::conditional_t<IO::Reads, T &, const T &>;

//===----------------------------------------------------------------------===//
// JSON backend
//===----------------------------------------------------------------------===//

/// Byte-exact JSON encoder: reproduces the hand-rendered wire bytes of
/// the pre-codec Serialize exactly (comma placement, shortest round-trip
/// doubles, bare NAN/INFINITY tokens, no whitespace).
class JsonEncoder : public Encoder {
public:
  bool beginObject() override;
  bool endObject() override;
  bool beginArray(uint64_t Count) override;
  bool endArray() override;
  bool key(const char *K) override;
  bool u64(uint64_t V) override;
  bool i64(int64_t V) override;
  bool dbl(double V) override;
  bool boolean(bool V) override;
  bool str(const std::string &S) override;
  bool present(const char *, bool) override { return true; }
  bool variant(const char *const *, unsigned, unsigned) override {
    return true;
  }

  std::string take() { return std::move(Out); }
  const std::string &text() const { return Out; }

private:
  /// Emits the comma a value in array context (or at root after a
  /// sibling) requires; a value after key() never needs one.
  void preValue();

  struct Frame {
    bool IsArray;
    bool First;
  };
  std::string Out;
  std::vector<Frame> Stack;
  bool AfterKey = false;
};

/// DOM-walking JSON decoder: field order independent, unknown fields
/// ignored, numbers reparsed from their raw tokens (bit-exact doubles;
/// integers must be plain digits that fit their width).
class JsonDecoder : public Decoder {
public:
  explicit JsonDecoder(const JsonValue &Root) : Cur(&Root) {}

  bool beginObject() override;
  bool endObject() override;
  bool beginArray(uint64_t &Count) override;
  bool element() override;
  bool endArray() override;
  bool key(const char *K) override;
  bool u64(uint64_t &V) override;
  bool i64(int64_t &V) override;
  bool dbl(double &V) override;
  bool boolean(bool &V) override;
  bool str(std::string &S) override;
  bool present(const char *Key, bool &P) override;
  bool variant(const char *const *Keys, unsigned NumKeys,
               unsigned &Tag) override;

private:
  struct Frame {
    const JsonValue *Container;
    size_t Next = 0;
  };
  std::vector<Frame> Stack;
  const JsonValue *Cur;
};

} // namespace wire
} // namespace herbgrind

#endif // HERBGRIND_SUPPORT_WIRE_H
