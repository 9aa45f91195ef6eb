// Entry point for the google-benchmark experiment binaries: each one's
// benchmarks also append rows to the global experiment table, and main()
// runs the benchmarks, then prints the table the corresponding paper
// claim calls for.
#pragma once

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_util.hpp"

/// Standard bench main: run benchmarks, then print the experiment table.
#define MMDIAG_BENCH_MAIN()                                   \
  int main(int argc, char** argv) {                           \
    ::benchmark::Initialize(&argc, argv);                     \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) \
      return 1;                                               \
    ::benchmark::RunSpecifiedBenchmarks();                    \
    ::mmdiag::bench::ExperimentTable::get().print(std::cout); \
    return 0;                                                 \
  }
