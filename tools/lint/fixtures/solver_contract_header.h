// Fixture: locs-solver-contract in a header — an entry point defined
// inline in a class body owes the same span and hook as one in a .cc.
// Lexed by locs_lint, never compiled: the fixture needs no includes.

namespace fixture {

class InlineSolver {
 public:
  // Uninstrumented inline entry point: both obligations missed.
  SearchResult Solve(int seed) {
    SearchResult result;
    result.vertices = seed;
    return result;
  }

  // Instrumented inline entry point: clean.
  SearchResult SolveChecked(int seed) {
    obs::PhaseTracker tracker;
    SearchResult result;
    result.vertices = seed;
    LOCS_VALIDATE_RESULT("SolveChecked", result, seed, 0);
    return result;
  }
};

}  // namespace fixture
