//===- support/WireBinary.cpp - HGB compact binary wire format ------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "support/WireBinary.h"

#include "support/Format.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

using namespace herbgrind;
using namespace herbgrind::wire;

/// Matches support/Json's parser depth bound: the decoders share one
/// stack-safety contract whatever the backend.
static constexpr unsigned MaxDepth = 512;

//===----------------------------------------------------------------------===//
// LZSS body codec
//===----------------------------------------------------------------------===//

/// Body codec tags (the byte after the version varints).
static constexpr unsigned char BodyRaw = 0;
static constexpr unsigned char BodyLzss = 1;

/// Bodies below this never try compression: the tokens cannot win and
/// raw bytes keep tiny cache entries trivially inspectable.
static constexpr size_t LzssMinBody = 64;
static constexpr size_t LzssMinMatch = 4;   ///< 3-byte token must beat bytes.
static constexpr size_t LzssMaxMatch = 259; ///< (length - 4) fits one byte.
static constexpr size_t LzssWindow = 1 << 16; ///< (offset - 1) fits 2 bytes.

static void appendVarint(std::string &Out, uint64_t V) {
  while (V >= 0x80) {
    Out += static_cast<char>((V & 0x7f) | 0x80);
    V >>= 7;
  }
  Out += static_cast<char>(V);
}

static uint32_t lzssHash(const unsigned char *P) {
  uint32_t X;
  std::memcpy(&X, P, 4);
  return (X * 2654435761u) >> 17;
}

/// Greedy LZSS over \p N body bytes: hash chains on 4-byte prefixes,
/// bounded chain walks, longest match wins (most recent candidate on
/// ties; the walk order is fixed, so output is deterministic).
static std::string lzssCompress(const unsigned char *D, size_t N) {
  constexpr uint32_t HashSize = 1u << 15;
  constexpr int MaxChain = 64;
  std::vector<int64_t> Head(HashSize, -1);
  std::vector<int64_t> Prev(N, -1);

  std::string Out;
  Out.reserve(N / 2);
  size_t CtrlPos = 0; ///< Offset of the pending control byte in Out.
  int CtrlBits = 8;   ///< Flags already used in it (8 = none pending).

  auto BeginToken = [&](bool IsMatch) {
    if (CtrlBits == 8) {
      CtrlPos = Out.size();
      Out += '\0';
      CtrlBits = 0;
    }
    if (IsMatch)
      Out[CtrlPos] |= static_cast<char>(1u << CtrlBits);
    ++CtrlBits;
  };
  auto Insert = [&](size_t I) {
    if (I + 4 > N)
      return;
    uint32_t H = lzssHash(D + I) & (HashSize - 1);
    Prev[I] = Head[H];
    Head[H] = static_cast<int64_t>(I);
  };

  size_t I = 0;
  while (I < N) {
    size_t BestLen = 0, BestPos = 0;
    if (I + LzssMinMatch <= N) {
      int64_t Cand = Head[lzssHash(D + I) & (HashSize - 1)];
      int Walk = 0;
      while (Cand >= 0 && Walk++ < MaxChain) {
        size_t C = static_cast<size_t>(Cand);
        if (I - C > LzssWindow)
          break;
        size_t Limit = std::min(N - I, LzssMaxMatch);
        size_t L = 0;
        while (L < Limit && D[C + L] == D[I + L])
          ++L;
        if (L > BestLen) {
          BestLen = L;
          BestPos = C;
          if (L == Limit)
            break;
        }
        Cand = Prev[C];
      }
    }
    if (BestLen >= LzssMinMatch) {
      BeginToken(true);
      size_t Off = I - BestPos - 1;
      Out += static_cast<char>(Off & 0xff);
      Out += static_cast<char>((Off >> 8) & 0xff);
      Out += static_cast<char>(BestLen - LzssMinMatch);
      for (size_t K = 0; K < BestLen; ++K)
        Insert(I + K);
      I += BestLen;
    } else {
      BeginToken(false);
      Out += static_cast<char>(D[I]);
      Insert(I);
      ++I;
    }
  }
  return Out;
}

/// Decompresses the LZSS stream at Data[Pos..] into exactly \p N bytes.
/// Every malformation -- overrunning input, an offset past the produced
/// prefix, producing too many or too few bytes, trailing stream bytes --
/// fails; the caches treat that as a miss.
static bool lzssDecompress(const std::string &Data, size_t Pos, uint64_t N,
                           std::string &Out, std::string &Err) {
  // A match token (3 bytes + a control bit) yields at most LzssMaxMatch
  // bytes, so a claimed size beyond that ratio cannot be honest; checking
  // up front keeps a hostile header from forcing a huge allocation.
  if (N > (Data.size() - Pos) * LzssMaxMatch) {
    Err = "HGB compressed body claims an impossible size";
    return false;
  }
  Out.clear();
  Out.reserve(N);
  unsigned Ctrl = 0, CtrlBits = 0;
  while (Out.size() < N) {
    if (CtrlBits == 0) {
      if (Pos >= Data.size()) {
        Err = "truncated HGB compressed body";
        return false;
      }
      Ctrl = static_cast<unsigned char>(Data[Pos++]);
      CtrlBits = 8;
    }
    bool IsMatch = Ctrl & 1;
    Ctrl >>= 1;
    --CtrlBits;
    if (IsMatch) {
      if (Pos + 3 > Data.size()) {
        Err = "truncated HGB compressed body";
        return false;
      }
      size_t Off = static_cast<unsigned char>(Data[Pos]) |
                   (static_cast<size_t>(
                        static_cast<unsigned char>(Data[Pos + 1]))
                    << 8);
      size_t Len =
          static_cast<unsigned char>(Data[Pos + 2]) + LzssMinMatch;
      Pos += 3;
      if (Off + 1 > Out.size() || Out.size() + Len > N) {
        Err = "malformed HGB compressed body";
        return false;
      }
      // Byte-at-a-time on purpose: overlapping matches (offset < length)
      // are legal and replicate the just-written bytes.
      size_t From = Out.size() - Off - 1;
      for (size_t K = 0; K < Len; ++K)
        Out += Out[From + K];
    } else {
      if (Pos >= Data.size()) {
        Err = "truncated HGB compressed body";
        return false;
      }
      Out += Data[Pos++];
    }
  }
  if (Pos != Data.size()) {
    Err = "trailing bytes after HGB compressed body";
    return false;
  }
  return true;
}

bool herbgrind::wire::isBinary(const std::string &Data) {
  return Data.size() >= 4 &&
         std::memcmp(Data.data(), HgbMagic, sizeof(HgbMagic)) == 0;
}

//===----------------------------------------------------------------------===//
// BinaryEncoder
//===----------------------------------------------------------------------===//

BinaryEncoder::BinaryEncoder(Family F, int Major, int Minor) {
  Out.append(reinterpret_cast<const char *>(HgbMagic), sizeof(HgbMagic));
  varint(static_cast<uint64_t>(F));
  varint(static_cast<uint64_t>(Major));
  varint(static_cast<uint64_t>(Minor));
  HeaderLen = Out.size();
}

std::string BinaryEncoder::take() {
  const size_t BodyLen = Out.size() - HeaderLen;
  std::string Res;
  if (BodyLen >= LzssMinBody) {
    std::string Packed = lzssCompress(
        reinterpret_cast<const unsigned char *>(Out.data()) + HeaderLen,
        BodyLen);
    Res.assign(Out, 0, HeaderLen);
    Res += static_cast<char>(BodyLzss);
    appendVarint(Res, BodyLen);
    Res += Packed;
    // Compression must actually win; a raw body costs one codec byte.
    if (Res.size() < Out.size() + 1)
      return Res;
  }
  Res.assign(Out, 0, HeaderLen);
  Res += static_cast<char>(BodyRaw);
  Res.append(Out, HeaderLen, std::string::npos);
  return Res;
}

bool BinaryEncoder::varint(uint64_t V) {
  appendVarint(Out, V);
  return true;
}

bool BinaryEncoder::i64(int64_t V) {
  // Zigzag: small magnitudes of either sign stay small on the wire.
  return varint((static_cast<uint64_t>(V) << 1) ^
                static_cast<uint64_t>(V >> 63));
}

bool BinaryEncoder::dbl(double V) {
  uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  for (int I = 0; I < 8; ++I)
    Out += static_cast<char>((Bits >> (8 * I)) & 0xff);
  return true;
}

bool BinaryEncoder::str(const std::string &S) {
  auto It = Intern.find(S);
  if (It != Intern.end())
    return varint(It->second);
  varint(0);
  varint(S.size());
  Out += S;
  Intern.emplace(S, static_cast<uint32_t>(Intern.size() + 1));
  return true;
}

//===----------------------------------------------------------------------===//
// BinaryDecoder
//===----------------------------------------------------------------------===//

bool BinaryDecoder::truncated() {
  return fail(format("%s: truncated HGB document", Ctx));
}

BinaryDecoder::BinaryDecoder(const std::string &D) : Data(D), Src(&D) {
  if (!isBinary(Data)) {
    fail("not an HGB document (bad magic)");
    return;
  }
  Pos = sizeof(HgbMagic);
  uint64_t F, Ma, Mi;
  if (!varint(F) || !varint(Ma) || !varint(Mi)) {
    fail("truncated HGB header");
    return;
  }
  if (F < 1 || F > 6) {
    fail(format("unknown HGB family tag %llu",
                static_cast<unsigned long long>(F)));
    return;
  }
  if (Ma > INT32_MAX || Mi > INT32_MAX) {
    fail(format("HGB version %llu.%llu out of range",
                static_cast<unsigned long long>(Ma),
                static_cast<unsigned long long>(Mi)));
    return;
  }
  Fam = static_cast<Family>(F);
  Major = static_cast<int>(Ma);
  Minor = static_cast<int>(Mi);
  unsigned char Codec;
  if (!byte(Codec)) {
    fail("truncated HGB header");
    return;
  }
  if (Codec == BodyLzss) {
    uint64_t BodyLen;
    std::string DecompErr;
    if (!varint(BodyLen)) {
      fail("truncated HGB header");
      return;
    }
    if (!lzssDecompress(Data, Pos, BodyLen, Owned, DecompErr)) {
      fail(DecompErr);
      return;
    }
    Src = &Owned;
    Pos = 0;
  } else if (Codec != BodyRaw) {
    fail(format("unknown HGB body codec %u", Codec));
    return;
  }
  HeaderOk = true;
}

bool BinaryDecoder::byte(unsigned char &B) {
  if (Pos >= Src->size())
    return truncated();
  B = static_cast<unsigned char>((*Src)[Pos++]);
  return true;
}

bool BinaryDecoder::varint(uint64_t &V) {
  V = 0;
  for (unsigned Shift = 0; Shift < 64; Shift += 7) {
    unsigned char B;
    if (!byte(B))
      return false;
    V |= static_cast<uint64_t>(B & 0x7f) << Shift;
    if (!(B & 0x80))
      return true;
  }
  return fail("varint longer than 64 bits");
}

bool BinaryDecoder::beginObject() {
  if (++Depth > MaxDepth)
    return fail("HGB document nests too deeply");
  return true;
}

bool BinaryDecoder::endObject() {
  --Depth;
  return true;
}

bool BinaryDecoder::beginArray(uint64_t &Count) {
  if (++Depth > MaxDepth)
    return fail("HGB document nests too deeply");
  return varint(Count);
}

bool BinaryDecoder::endArray() {
  --Depth;
  return true;
}

bool BinaryDecoder::i64(int64_t &V) {
  uint64_t Z;
  if (!varint(Z))
    return false;
  V = static_cast<int64_t>((Z >> 1) ^ (~(Z & 1) + 1));
  return true;
}

bool BinaryDecoder::dbl(double &V) {
  if (Pos + 8 > Src->size())
    return truncated();
  uint64_t Bits = 0;
  for (int I = 0; I < 8; ++I)
    Bits |= static_cast<uint64_t>(
                static_cast<unsigned char>((*Src)[Pos + I]))
            << (8 * I);
  Pos += 8;
  std::memcpy(&V, &Bits, sizeof(V));
  return true;
}

bool BinaryDecoder::boolean(bool &V) {
  unsigned char B;
  if (!byte(B))
    return false;
  if (B > 1)
    return fail("malformed boolean byte");
  V = B != 0;
  return true;
}

bool BinaryDecoder::str(std::string &S) {
  uint64_t Ref;
  if (!varint(Ref))
    return false;
  if (Ref > 0) {
    if (Ref > Table.size())
      return fail(format("string table reference %llu out of range",
                         static_cast<unsigned long long>(Ref)));
    S = Table[Ref - 1];
    return true;
  }
  uint64_t Len;
  if (!varint(Len))
    return false;
  if (Len > Src->size() - Pos)
    return truncated();
  S.assign(*Src, Pos, Len);
  Pos += Len;
  Table.push_back(S);
  return true;
}

bool BinaryDecoder::present(const char *Key, bool &P) {
  LastKey = Key;
  unsigned char B;
  if (!byte(B))
    return false;
  if (B > 1)
    return fail("malformed presence byte");
  P = B != 0;
  return true;
}

bool BinaryDecoder::variant(const char *const *Keys, unsigned NumKeys,
                            unsigned &Tag) {
  uint64_t T;
  if (!varint(T))
    return false;
  if (T > NumKeys)
    return fail(format("variant tag %llu out of range",
                       static_cast<unsigned long long>(T)));
  Tag = static_cast<unsigned>(T);
  return true;
}
