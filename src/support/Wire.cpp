//===- support/Wire.cpp - JSON wire codec backend -------------------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "support/Wire.h"

#include "support/Format.h"

#include <cassert>
#include <cerrno>
#include <cstdlib>

using namespace herbgrind;
using namespace herbgrind::wire;

const char *herbgrind::wire::familyName(Family F) {
  switch (F) {
  case Family::Shard:
    return "shard";
  case Family::Improve:
    return "improve";
  case Family::Report:
    return "report";
  case Family::BatchReport:
    return "batch-report";
  case Family::Telemetry:
    return "telemetry";
  case Family::Ledger:
    return "ledger";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// JsonEncoder
//===----------------------------------------------------------------------===//

void JsonEncoder::preValue() {
  if (AfterKey) {
    AfterKey = false;
    return;
  }
  if (!Stack.empty() && Stack.back().IsArray) {
    if (!Stack.back().First)
      Out += ',';
    Stack.back().First = false;
  }
}

bool JsonEncoder::beginObject() {
  preValue();
  Out += '{';
  Stack.push_back({false, true});
  return true;
}

bool JsonEncoder::endObject() {
  assert(!Stack.empty() && !Stack.back().IsArray);
  Stack.pop_back();
  Out += '}';
  return true;
}

bool JsonEncoder::beginArray(uint64_t) {
  preValue();
  Out += '[';
  Stack.push_back({true, true});
  return true;
}

bool JsonEncoder::endArray() {
  assert(!Stack.empty() && Stack.back().IsArray);
  Stack.pop_back();
  Out += ']';
  return true;
}

bool JsonEncoder::key(const char *K) {
  assert(!Stack.empty() && !Stack.back().IsArray);
  if (!Stack.back().First)
    Out += ',';
  Stack.back().First = false;
  Out += '"';
  Out += K; // Schema keys are plain ASCII identifiers: no escaping.
  Out += "\":";
  AfterKey = true;
  return true;
}

bool JsonEncoder::u64(uint64_t V) {
  preValue();
  Out += format("%llu", static_cast<unsigned long long>(V));
  return true;
}

bool JsonEncoder::i64(int64_t V) {
  preValue();
  Out += format("%lld", static_cast<long long>(V));
  return true;
}

bool JsonEncoder::dbl(double V) {
  preValue();
  Out += formatDoubleShortest(V);
  return true;
}

bool JsonEncoder::boolean(bool V) {
  preValue();
  Out += V ? "true" : "false";
  return true;
}

bool JsonEncoder::str(const std::string &S) {
  preValue();
  Out += '"';
  Out += jsonEscape(S);
  Out += '"';
  return true;
}

//===----------------------------------------------------------------------===//
// Decoder
//===----------------------------------------------------------------------===//

bool Decoder::failField(const char *What) {
  return fail(format("%s: field '%s' %s", Ctx,
                     LastKey ? LastKey : "(value)", What));
}

//===----------------------------------------------------------------------===//
// JsonDecoder
//===----------------------------------------------------------------------===//

bool JsonDecoder::beginObject() {
  if (!Cur || !Cur->isObject())
    return fail(format("%s: not an object", Ctx));
  Stack.push_back({Cur});
  return true;
}

bool JsonDecoder::endObject() {
  assert(!Stack.empty());
  Stack.pop_back();
  return true;
}

bool JsonDecoder::beginArray(uint64_t &Count) {
  if (!Cur || !Cur->isArray())
    return failField("missing or not an array");
  Count = Cur->Arr.size();
  Stack.push_back({Cur});
  return true;
}

bool JsonDecoder::element() {
  assert(!Stack.empty() && Stack.back().Container->isArray());
  Frame &F = Stack.back();
  if (F.Next >= F.Container->Arr.size())
    return fail(format("%s: array read past its end", Ctx));
  Cur = &F.Container->Arr[F.Next++];
  return true;
}

bool JsonDecoder::endArray() {
  assert(!Stack.empty());
  Stack.pop_back();
  return true;
}

bool JsonDecoder::key(const char *K) {
  assert(!Stack.empty() && Stack.back().Container->isObject());
  LastKey = K;
  Cur = Stack.back().Container->field(K);
  // A missing field is reported by the typed read that follows, so the
  // message matches the old parsers' "missing or not a ..." wording.
  return true;
}

/// Whether \p Tok is an integer token the encoders could have written:
/// digits only, after a '-' when \p Signed. strtoull/strtoll would stop
/// at a fraction or exponent and wrap a negative count.
static bool plainInteger(const std::string &Tok, bool Signed) {
  size_t Start = Signed && !Tok.empty() && Tok[0] == '-' ? 1 : 0;
  return Tok.size() > Start &&
         Tok.find_first_not_of("0123456789", Start) == std::string::npos;
}

bool JsonDecoder::u64(uint64_t &V) {
  if (!Cur || !Cur->isNumber())
    return failField("missing or not a number");
  if (!plainInteger(Cur->Num, /*Signed=*/false))
    return failField("must be a non-negative integer");
  errno = 0;
  V = std::strtoull(Cur->Num.c_str(), nullptr, 10);
  if (errno == ERANGE)
    return failField("must fit in 64 bits");
  return true;
}

bool JsonDecoder::i64(int64_t &V) {
  if (!Cur || !Cur->isNumber())
    return failField("missing or not a number");
  if (!plainInteger(Cur->Num, /*Signed=*/true))
    return failField("must be an integer");
  errno = 0;
  V = std::strtoll(Cur->Num.c_str(), nullptr, 10);
  if (errno == ERANGE)
    return failField("must fit in 64 bits");
  return true;
}

bool JsonDecoder::dbl(double &V) {
  if (!Cur || !Cur->isNumber())
    return failField("missing or not a number");
  V = Cur->asDouble();
  return true;
}

bool JsonDecoder::boolean(bool &V) {
  if (!Cur || !Cur->isBool())
    return failField("missing or not a boolean");
  V = Cur->BoolVal;
  return true;
}

bool JsonDecoder::str(std::string &S) {
  if (!Cur || !Cur->isString())
    return failField("missing or not a string");
  S = Cur->Str;
  return true;
}

bool JsonDecoder::present(const char *Key, bool &P) {
  assert(!Stack.empty() && Stack.back().Container->isObject());
  P = Stack.back().Container->field(Key) != nullptr;
  return true;
}

bool JsonDecoder::variant(const char *const *Keys, unsigned NumKeys,
                          unsigned &Tag) {
  assert(!Stack.empty() && Stack.back().Container->isObject());
  for (unsigned I = 0; I < NumKeys; ++I)
    if (Stack.back().Container->field(Keys[I])) {
      Tag = I;
      return true;
    }
  Tag = NumKeys;
  return true;
}
