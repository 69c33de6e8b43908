// Fixture: locs-wire-err-literal — every "ERR ..." reply must come
// from the typed WireError table (FormatError in serve/wire.cc),
// never an ad-hoc string literal.
// Lexed by locs_lint, never compiled: the fixture needs no includes.

namespace fixture {

const char* BadParse() {
  return "ERR parse malformed header";
}

const char* BadBare() {
  return "ERR";
}

// Non-error wire traffic and prose mentioning errors are clean.
const char* GoodOk() {
  return "OK pong";
}

const char* GoodProse() {
  return "the ERRATA section";
}

// Audited exception: a doc string quoting the wire format.
const char* AuditedExample() {
  return "ERR busy queue_full";  // NOLINT(locs-wire-err-literal)
}

}  // namespace fixture
