// The benchmark's own self-test, at tiny size:
//  - a torn or corrupted chunk file in a warm store is counted as a
//    failed operation (a miss, re-simulated), never served as data;
//  - a deliberately violated output check raises the failed count;
//  - the exact-count metrics (chunks, RNG draws per window and per
//    slot) repeat exactly across two runs.
#pragma once

#include <cstddef>
#include <string>

namespace perfbench {

/// Runs every case under `tmp`; prints one PASS/FAIL line per case and
/// returns 0 when all pass, 1 otherwise.
int run_selftest(const std::string& tmp, std::size_t threads);

}  // namespace perfbench
