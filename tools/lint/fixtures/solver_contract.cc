// Fixture: locs-solver-contract — every solver entry point must open
// an obs::PhaseTracker span and reach a LOCS_VALIDATE hook, or
// delegate to an entry point that does.
// Lexed by locs_lint, never compiled: the fixture needs no includes.

namespace fixture {

// Uninstrumented entry point: both obligations missed, two findings.
SearchResult DarkSolve(int seed) {
  SearchResult result;
  result.vertices = seed;
  return result;
}

// Span opened but the result leaves unvalidated: one finding.
SearchResult HalfSolve(int seed) {
  obs::PhaseTracker tracker;
  SearchResult result;
  result.vertices = seed;
  return result;
}

// Fully instrumented: clean.
SearchResult GoodSolve(int seed) {
  obs::PhaseTracker tracker;
  SearchResult result;
  result.vertices = seed;
  LOCS_VALIDATE_RESULT("GoodSolve", result, seed, 0);
  return result;
}

// Facade delegation to an instrumented entry point: clean.
class Facade {
 public:
  SearchResult Solve(int seed) {
    return GoodSolve(seed);
  }
};

// Worker internals and factories are the caller's responsibility.
SearchResult GoodSolveImpl(int seed) {
  SearchResult result;
  result.vertices = seed;
  return result;
}

SearchResult MakeEmptyResult() {
  return SearchResult();
}

// Helpers handed a caller's span run inside its contract: clean.
SearchResult Narrow(obs::PhaseTracker& tracker, int seed) {
  SearchResult result;
  result.vertices = seed + 1;
  (void)tracker;
  return result;
}

// A pointer to a tracker opens no span: one finding.
SearchResult PointerSpan(int seed) {
  obs::PhaseTracker* tracker = nullptr;
  SearchResult result;
  result.vertices = seed;
  LOCS_VALIDATE_RESULT("PointerSpan", result, seed, 0);
  (void)tracker;
  return result;
}

// A direct validator call is not the hook: it runs in production builds,
// where LOCS_VALIDATE_RESULT compiles away. One finding.
SearchResult DirectValidate(int seed) {
  obs::PhaseTracker tracker;
  SearchResult result;
  result.vertices = seed;
  validate::DieOnViolation("DirectValidate", result, seed, 0);
  return result;
}

}  // namespace fixture
