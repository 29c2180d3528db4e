// Self-test of the benchmark's correctness gate: a run whose facts differ
// from the pinned ones and a run that did not disperse must both be counted
// as failed, and a correct run must pass.
//
//   cmake --build .bench_build --target perf_check_test
//   ctest --test-dir .bench_build

#include <cstdio>
#include <cstdlib>
#include <string>

#include "check.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

disp::RunResult dispersedRun() {
  disp::RunResult r;
  r.dispersed = true;
  r.recovered = true;
  r.time = 12;
  r.activations = 36;
  r.totalMoves = 5;
  r.maxMemoryBits = 40;
  r.finalPositions = {0, 1, 2};
  return r;
}

}  // namespace

int main() {
  using perfbench::Checker;
  using perfbench::RunCheck;

  perfbench::Reference ref;
  const disp::RunResult good = dispersedRun();
  ref.pin("w", "good", perfbench::factsOf(good));
  ref.pin("w", "wrong_fact", perfbench::factsOf(good));
  ref.pin("w", "stuck", perfbench::factsOf(good));

  Checker checker(&ref);
  expect(checker.check({"w", "good", &good, "", true, good.totalMoves}),
         "a run matching its pinned facts passes");

  disp::RunResult wrong = good;
  wrong.totalMoves += 1;  // one wrong pinned fact
  expect(!checker.check({"w", "wrong_fact", &wrong, "", false, 0}),
         "a run with a wrong pinned fact fails");

  disp::RunResult stuck = good;
  stuck.dispersed = false;
  stuck.finalPositions = {0, 0, 2};
  expect(!checker.check({"w", "stuck", &stuck, "", false, 0}),
         "a non-dispersed run fails");

  expect(!checker.check({"w", "good", &good, "", true, good.totalMoves - 1}),
         "a Move-event count that differs from totalMoves fails");
  expect(!checker.check({"w", "good", nullptr, "boom", false, 0}), "a run that threw fails");

  expect(checker.attempted() == 5, "every check is attempted");
  expect(checker.failed() == 4, "both seeded defects (and the two others) are counted");
  expect(checker.failures().count("w/wrong_fact") == 1, "the wrong fact is named by run");
  expect(checker.failures().count("w/stuck") == 1, "the non-dispersed run is named by run");

  // Away from the default seed only the invariants apply.
  Checker unpinned(nullptr);
  expect(unpinned.check({"w", "wrong_fact", &wrong, "", false, 0}),
         "facts are not compared without a reference");
  expect(!unpinned.check({"w", "stuck", &stuck, "", false, 0}),
         "invariants still apply without a reference");

  if (failures == 0) std::puts("perf_check_test: all checks passed");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
