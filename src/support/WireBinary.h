//===- support/WireBinary.h - HGB compact binary wire format ----*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// HGB: the length-prefixed compact binary backend of the wire codec
/// (`support/Wire.h`). One HGB document is:
///
///   header:  magic 0x89 'H' 'G' 'B'  |  family varint  |  major varint
///            |  minor varint  |  codec byte
///   body:    the document's schema traversal, positionally encoded;
///            codec 0 stores it raw, codec 1 stores a varint decoded
///            length followed by an LZSS token stream (see below)
///
/// Scalar encodings: unsigned integers are LEB128 varints, signed
/// integers are zigzag varints, doubles are the 8 raw IEEE-754 bytes
/// little-endian (round-trip is trivially bit-exact, NaN payloads
/// included), booleans and optional-presence markers are one byte,
/// arrays are a count varint followed by the elements, and object
/// begin/end plus field keys occupy zero bytes (field identity is the
/// traversal position). Strings go through a streaming interned table:
/// varint 0 introduces a new string (length varint + bytes, appended to
/// the table), varint k > 0 references table[k-1] -- so the repeated
/// HG_LOC file/function and opcode names that dominate report documents
/// cost two or three bytes after first use.
///
/// Interning alone cannot shrink the long FPCore texts that dominate
/// report documents (each is unique), so the encoder additionally
/// LZSS-compresses the whole body when that wins: a control byte carries
/// eight flags (LSB first), flag 0 is a literal byte, flag 1 a match of
/// 2-byte little-endian (offset - 1) plus 1-byte (length - 4), window
/// 64 KiB, match lengths 4..259. Greedy matching with hash chains keeps
/// encode single-pass and deterministic. Small bodies (or bodies the
/// tokens would grow) stay raw under codec 0, so the format never
/// regresses.
///
/// The first magic byte is deliberately non-ASCII: a reader sniffs
/// JSON ('{') vs HGB (0x89) vs garbage from the first byte alone, which
/// is how the result cache and shard merging accept either format.
///
/// Version discipline: readers reject unknown majors, as the JSON envelope
/// does, and also reject a minor newer than they know. A JSON reader can
/// skip a newer minor's fields by name; an HGB reader would read them as
/// the next field's bytes, since fields go by position.
///
//===----------------------------------------------------------------------===//

#ifndef HERBGRIND_SUPPORT_WIREBINARY_H
#define HERBGRIND_SUPPORT_WIREBINARY_H

#include "support/Wire.h"

#include <unordered_map>

namespace herbgrind {
namespace wire {

/// The 4-byte HGB magic. 0x89 cannot start a JSON document (or any
/// UTF-8 text), making format sniffing a one-byte decision.
constexpr unsigned char HgbMagic[4] = {0x89, 'H', 'G', 'B'};

/// True if \p Data starts with the HGB magic.
bool isBinary(const std::string &Data);

//===----------------------------------------------------------------------===//
// BinaryEncoder
//===----------------------------------------------------------------------===//

class BinaryEncoder : public Encoder {
public:
  /// Writes the HGB header for \p F at version \p Major.\p Minor.
  BinaryEncoder(Family F, int Major, int Minor);

  bool beginObject() override { return true; }
  bool endObject() override { return true; }
  bool beginArray(uint64_t Count) override { return varint(Count); }
  bool endArray() override { return true; }
  bool key(const char *) override { return true; }
  bool u64(uint64_t V) override { return varint(V); }
  bool i64(int64_t V) override;
  bool dbl(double V) override;
  bool boolean(bool V) override { return byte(V); }
  bool str(const std::string &S) override;
  bool present(const char *, bool P) override { return byte(P); }
  bool variant(const char *const *, unsigned, unsigned Tag) override {
    return varint(Tag);
  }

  /// Finalizes the document: picks the body codec (LZSS when it shrinks
  /// the body, raw otherwise) and returns header + codec byte + body.
  std::string take();

private:
  bool varint(uint64_t V);
  bool byte(bool B) {
    Out += static_cast<char>(B ? 1 : 0);
    return true;
  }

  std::string Out;
  size_t HeaderLen = 0; ///< Bytes of Out occupied by the HGB header.
  std::unordered_map<std::string, uint32_t> Intern; ///< string -> ref (1-based)
};

//===----------------------------------------------------------------------===//
// BinaryDecoder
//===----------------------------------------------------------------------===//

/// Sequential HGB reader. Every read is bounds-checked; malformed or
/// truncated input fails (and the caches treat that as a miss, never an
/// error). Nesting depth is capped like the JSON parser's, so a hostile
/// document cannot recurse the decoder off the stack.
class BinaryDecoder : public Decoder {
public:
  /// Parses the header; on failure ok() is false and error() says why.
  explicit BinaryDecoder(const std::string &Data);

  bool ok() const { return HeaderOk; }
  Family family() const { return Fam; }
  int major() const { return Major; }
  int minor() const { return Minor; }
  /// True once the whole document has been consumed (trailing garbage
  /// after a decode means the document is corrupt).
  bool atEnd() const { return Pos == Src->size(); }

  bool beginObject() override;
  bool endObject() override;
  bool beginArray(uint64_t &Count) override;
  bool element() override { return true; }
  bool endArray() override;
  bool key(const char *K) override {
    LastKey = K;
    return true;
  }
  bool u64(uint64_t &V) override { return varint(V); }
  bool i64(int64_t &V) override;
  bool dbl(double &V) override;
  bool boolean(bool &V) override;
  bool str(std::string &S) override;
  bool present(const char *Key, bool &P) override;
  bool variant(const char *const *Keys, unsigned NumKeys,
               unsigned &Tag) override;

private:
  bool varint(uint64_t &V);
  bool byte(unsigned char &B);
  bool truncated();

  const std::string &Data;
  std::string Owned;              ///< Decompressed body (codec 1 only).
  const std::string *Src = nullptr; ///< What reads consume: &Data or &Owned.
  size_t Pos = 0;
  unsigned Depth = 0;
  bool HeaderOk = false;
  Family Fam = Family::Shard;
  int Major = 0, Minor = 0;
  std::vector<std::string> Table; ///< Interned strings, in intern order.
};

} // namespace wire
} // namespace herbgrind

#endif // HERBGRIND_SUPPORT_WIREBINARY_H
