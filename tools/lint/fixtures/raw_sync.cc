// Fixture: locs-raw-sync — raw std:: synchronization primitives are
// invisible to Clang thread-safety analysis and must go through the
// locs:: wrappers from util/thread_annotations.h.
// Lexed by locs_lint, never compiled: the fixture needs no includes.

namespace fixture {

// Raw primitives: each declaration fires.
std::mutex bad_mutex;
std::condition_variable bad_cv;

void BadScoped() {
  std::lock_guard<std::mutex> bad_lock(bad_mutex);
}

void BadUnique() {
  std::unique_lock<std::mutex> bad_lock(bad_mutex);
}

// The locs wrappers are the sanctioned spelling: clean.
locs::Mutex good_mutex;

void GoodScoped() {
  locs::MutexLock lock(good_mutex);
}

// Audited exception: justified interop with a third-party API.
std::mutex audited_mutex;  // NOLINT(locs-raw-sync)

// Under a using-directive the bare names are the same raw types.
namespace bare {
using namespace std;
mutex bare_mutex;
}  // namespace bare

}  // namespace fixture
