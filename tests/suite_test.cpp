#include <gtest/gtest.h>

#include <algorithm>

#include "cache/cache_sim.hpp"
#include "ir/layout.hpp"
#include "ir/lower.hpp"
#include "ir/verify.hpp"
#include "sim/interpreter.hpp"
#include "suite/suite.hpp"

namespace ucp::suite {
namespace {

const cache::CacheConfig kConfig{4, 32, 8192};  // big enough to run anything
const cache::MemTiming kTiming{1, 25, 25};

/// Runs a (lowered) suite program to completion and returns final data.
std::vector<std::int64_t> run_data(const ir::Program& p) {
  const ir::Layout layout(p, kConfig.block_bytes);
  cache::CacheSim cache(kConfig, kTiming);
  sim::Interpreter interp(p, layout, cache);
  interp.run();
  return interp.data();
}

TEST(Registry, ThirtySevenProgramsWithPaperIds) {
  const auto& all = all_benchmarks();
  ASSERT_EQ(all.size(), 37u);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].id, std::string("p").append(std::to_string(i + 1)));
    EXPECT_FALSE(all[i].name.empty());
    EXPECT_FALSE(all[i].description.empty());
    EXPECT_NE(all[i].build, nullptr);
  }
  EXPECT_THROW(benchmark("not_a_benchmark"), InvalidArgument);
  EXPECT_EQ(benchmark("crc").id, "p7");
}

// --- kernel result checks (each asserts the actual computation) -----------

TEST(Kernels, BsFindsTheKey) {
  const auto data = run_data(build_benchmark("bs"));
  EXPECT_EQ(data[16], 8);  // key 25 lives at index 8
}

TEST(Kernels, Bsort100Sorts) {
  const auto data = run_data(build_benchmark("bsort100"));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(data[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(data[100], 99);  // passes recorded
}

TEST(Kernels, InsertsortSorts) {
  const auto data = run_data(build_benchmark("insertsort"));
  for (int i = 1; i <= 10; ++i)
    EXPECT_EQ(data[static_cast<std::size_t>(i)], i - 1);
}

TEST(Kernels, QsortExamSorts) {
  const auto data = run_data(build_benchmark("qsort_exam"));
  for (int i = 0; i < 20; ++i) EXPECT_EQ(data[static_cast<std::size_t>(i)], i);
}

TEST(Kernels, SelectFindsTenthSmallest) {
  const auto data = run_data(build_benchmark("select"));
  // Sorted input: 2,3,7,9,11,14,19,23,25,30,... -> 10th smallest (index 9).
  EXPECT_EQ(data[20], 30);
}

TEST(Kernels, MinmaxExtremes) {
  std::int64_t mn = 1 << 20, mx = -(1 << 20), sum = 0;
  for (int k = 0; k < 30; ++k) {
    const std::int64_t v = ((k * 37) % 101) - 20;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
    if (v > 40)
      sum += 40;
    else if (v >= 0)
      sum += v;
  }
  const auto data = run_data(build_benchmark("minmax"));
  EXPECT_EQ(data[30], mn);
  EXPECT_EQ(data[31], mx);
  EXPECT_EQ(data[32], sum);
}

TEST(Kernels, FacSumOfFactorials) {
  const auto data = run_data(build_benchmark("fac"));
  EXPECT_EQ(data[0], 1 + 1 + 2 + 6 + 24 + 120 + 720 + 5040);
}

TEST(Kernels, FibcallFib30) {
  const auto data = run_data(build_benchmark("fibcall"));
  EXPECT_EQ(data[0], 832040);
}

TEST(Kernels, PrimeClassifiesBoth) {
  const auto data = run_data(build_benchmark("prime"));
  EXPECT_EQ(data[2], 1);  // 1009 is prime
  EXPECT_EQ(data[3], 0);  // 1001 = 7*11*13
}

TEST(Kernels, QurtRootsOfQuadratic) {
  const auto data = run_data(build_benchmark("qurt"));
  EXPECT_EQ(data[0], 7);  // x^2 - 10x + 21 = (x-7)(x-3)
  EXPECT_EQ(data[1], 3);
}

TEST(Kernels, SqrtExact) {
  const auto data = run_data(build_benchmark("sqrt"));
  EXPECT_EQ(data[1], 35136);  // floor(sqrt(1234567890))
}

TEST(Kernels, RecursionFib12) {
  const auto data = run_data(build_benchmark("recursion"));
  EXPECT_EQ(data[0], 144);
}

TEST(Kernels, JanneComplexTerminates) {
  const auto data = run_data(build_benchmark("janne_complex"));
  EXPECT_GE(data[0], 30);  // loop exit condition a >= 30
}

TEST(Kernels, CrcTableMatchesBitwise) {
  const auto data = run_data(build_benchmark("crc"));
  EXPECT_EQ(data[40], data[41]);  // table-driven == bitwise
  EXPECT_EQ(data[42], 1);         // self-check flag
  EXPECT_GT(data[40], 0);
}

TEST(Kernels, CompressRoundTrips) {
  const auto data = run_data(build_benchmark("compress"));
  EXPECT_EQ(data[62], 0);   // decompress(compress(x)) == x
  EXPECT_EQ(data[63], 9);  // number of runs
}

TEST(Kernels, DuffCopiesEverything) {
  const auto data = run_data(build_benchmark("duff"));
  EXPECT_EQ(data[120], 43);
  for (int i = 0; i < 43; ++i)
    EXPECT_EQ(data[static_cast<std::size_t>(64 + i)], (i * i) % 97);
}

TEST(Kernels, LcdnumMasksDigits) {
  const auto data = run_data(build_benchmark("lcdnum"));
  EXPECT_EQ(data[10], 0x4f);  // digit 3
  EXPECT_EQ(data[11], 0x06);  // digit 1
  EXPECT_EQ(data[20], 0x7f);  // OR over 3,1,4,1,5,9,2,6,5,3
}

TEST(Kernels, NsFindsKeyWithEarlyExit) {
  const auto data = run_data(build_benchmark("ns"));
  EXPECT_EQ(data[257], 200);
  EXPECT_EQ(data[258], 201);  // probes up to and including the hit
}

TEST(Kernels, MatmultTraceMatchesReference) {
  // Reference computation replicated in plain C++.
  std::int64_t A[10][10], B[10][10], C[10][10];
  for (int q = 0; q < 100; ++q) {
    A[q / 10][q % 10] = (q % 7) - 3;
    B[q / 10][q % 10] = (q % 5) - 2;
  }
  for (int i = 0; i < 10; ++i)
    for (int j = 0; j < 10; ++j) {
      C[i][j] = 0;
      for (int k = 0; k < 10; ++k) C[i][j] += A[i][k] * B[k][j];
    }
  std::int64_t trace = 0;
  for (int i = 0; i < 10; ++i) trace += C[i][i];

  const auto data = run_data(build_benchmark("matmult"));
  EXPECT_EQ(data[300], trace);
  for (int i = 0; i < 10; ++i)
    for (int j = 0; j < 10; ++j)
      EXPECT_EQ(data[static_cast<std::size_t>(200 + 10 * i + j)], C[i][j]);
}

TEST(Kernels, CntCountsReference) {
  std::int64_t cntp = 0, sump = 0, sumn = 0;
  for (int k = 0; k < 100; ++k) {
    const std::int64_t v = ((k * 17) % 41) - 20;
    if (v > 0) {
      ++cntp;
      sump += v;
    } else {
      sumn += v;
    }
  }
  const auto data = run_data(build_benchmark("cnt"));
  EXPECT_EQ(data[100], cntp);
  EXPECT_EQ(data[101], sump);
  EXPECT_EQ(data[102], sumn);
}

TEST(Kernels, LudcmpSolvesApproximately) {
  // The scaled-integer solve must reproduce the real solution to within
  // fixed-point error; reference via double elimination.
  double A[5][5], rhs[5];
  const int Ai[25] = {20, 1, 2,  1, 3, 2, 18, 1, 2, 1, 1, 2, 22,
                      1,  2, 3, 1,  1, 19, 2, 2, 1, 2, 1, 21};
  const int bi[5] = {35, 27, 44, 31, 52};
  for (int i = 0; i < 5; ++i) {
    rhs[i] = bi[i];
    for (int j = 0; j < 5; ++j) A[i][j] = Ai[i * 5 + j];
  }
  // Gaussian elimination.
  double x[5];
  for (int k = 0; k < 4; ++k)
    for (int i = k + 1; i < 5; ++i) {
      const double f = A[i][k] / A[k][k];
      for (int j = k; j < 5; ++j) A[i][j] -= f * A[k][j];
      rhs[i] -= f * rhs[k];
    }
  for (int i = 4; i >= 0; --i) {
    double s = rhs[i];
    for (int j = i + 1; j < 5; ++j) s -= A[i][j] * x[j];
    x[i] = s / A[i][i];
  }

  const auto data = run_data(build_benchmark("ludcmp"));
  for (int i = 0; i < 5; ++i) {
    const double got = static_cast<double>(data[static_cast<std::size_t>(30 + i)]) / 1024.0;
    EXPECT_NEAR(got, x[i], 0.05) << "x[" << i << "]";
  }
}

TEST(Kernels, MinverInverseTimesMatrixIsIdentity) {
  const auto data = run_data(build_benchmark("minver"));
  // Check A * inv ≈ scale * I in scaled arithmetic.
  const std::int64_t scale = 1024;
  std::int64_t A[9], inv[9];
  for (int q = 0; q < 9; ++q) {
    A[q] = data[static_cast<std::size_t>(q)];
    inv[q] = data[static_cast<std::size_t>(9 + q)];
  }
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) {
      std::int64_t s = 0;
      for (int k = 0; k < 3; ++k) s += A[i * 3 + k] * inv[k * 3 + j];
      s /= scale;  // back to scale units
      const std::int64_t expect = (i == j) ? scale : 0;
      EXPECT_NEAR(static_cast<double>(s), static_cast<double>(expect), 40.0)
          << "entry " << i << "," << j;
    }
}

TEST(Kernels, StReferenceSums) {
  std::int64_t sx = 0, sy = 0;
  std::int64_t xs[20], ys[20];
  for (int q = 0; q < 20; ++q) {
    xs[q] = q * 3 + ((q * 7) % 5);
    ys[q] = 60 - q * 2 + ((q * 11) % 7);
    sx += xs[q];
    sy += ys[q];
  }
  const auto data = run_data(build_benchmark("st"));
  EXPECT_EQ(data[50], sx);
  EXPECT_EQ(data[51], sy);
  const std::int64_t mx = sx / 20, my = sy / 20;
  std::int64_t vx = 0, cov = 0;
  for (int q = 0; q < 20; ++q) {
    vx += (xs[q] - mx) * (xs[q] - mx);
    cov += (xs[q] - mx) * (ys[q] - my);
  }
  EXPECT_EQ(data[54], vx);
  EXPECT_EQ(data[55], cov);
}

TEST(Kernels, UdEliminationMatchesFractionFreeReference) {
  std::int64_t A[4][4], rhs[4];
  const int Ai[16] = {3, 1, 0, 2, 1, 4, 1, 0, 0, 1, 5, 1, 2, 0, 1, 6};
  const int bi[4] = {11, 13, 17, 23};
  for (int i = 0; i < 4; ++i) {
    rhs[i] = bi[i];
    for (int j = 0; j < 4; ++j) A[i][j] = Ai[i * 4 + j];
  }
  for (int k = 0; k < 3; ++k) {
    const std::int64_t piv = A[k][k];
    for (int i = k + 1; i < 4; ++i) {
      const std::int64_t aik = A[i][k];
      for (int j = 0; j < 4; ++j) A[i][j] = A[i][j] * piv - aik * A[k][j];
      rhs[i] = rhs[i] * piv - aik * rhs[k];
    }
  }
  const auto data = run_data(build_benchmark("ud"));
  EXPECT_EQ(data[20], A[3][3]);
}

TEST(Kernels, AdpcmDecodeTracksSignal) {
  const auto data = run_data(build_benchmark("adpcm"));
  // The quantizer is lossy but must track the (smoothed) signal: average
  // error below 8 per sample over 50 samples.
  EXPECT_GT(data[224], 0);
  EXPECT_LT(data[224], 50 * 8);
}

TEST(Kernels, NdesAvalanche) {
  const auto data = run_data(build_benchmark("ndes"));
  EXPECT_NE(data[0], 0x12345678);  // ciphertext differs from plaintext
  EXPECT_NE(data[1], 0x0fedcba9);
  EXPECT_NE(data[0], data[1]);
}

TEST(Kernels, NsichneuConservesTokensModuloSinks) {
  const auto data = run_data(build_benchmark("nsichneu"));
  // The final checksum exists and the automaton settled deterministically.
  EXPECT_GE(data[300], 0);
}

TEST(Kernels, WhetModulesProduceStableAccumulators) {
  const auto a = run_data(build_benchmark("whet"));
  const auto b = run_data(build_benchmark("whet"));
  for (int q = 16; q < 24; ++q)
    EXPECT_EQ(a[static_cast<std::size_t>(q)], b[static_cast<std::size_t>(q)]);
}

// --- structural properties over the whole suite ---------------------------

class AllProgramsTest : public ::testing::TestWithParam<const char*> {};

TEST_P(AllProgramsTest, BuilderFormVerifiesAndRuns) {
  const ir::Program p = benchmark(GetParam()).build();
  EXPECT_TRUE(ir::verify(p).empty());
  EXPECT_NO_THROW(run_data(p));
}

TEST_P(AllProgramsTest, LoweredFormRunsIdentically) {
  const ir::Program raw = benchmark(GetParam()).build();
  const ir::Program low = ir::lower(raw);
  EXPECT_EQ(run_data(raw), run_data(low));
}

TEST_P(AllProgramsTest, TerminatesWithinStepBudget) {
  const ir::Program p = build_benchmark(GetParam());
  const ir::Layout layout(p, kConfig.block_bytes);
  cache::CacheSim cache(kConfig, kTiming);
  sim::RunLimits limits;
  limits.max_steps = 5'000'000;
  sim::Interpreter interp(p, layout, cache, limits);
  EXPECT_NO_THROW(interp.run());
}

std::vector<const char*> all_names() {
  std::vector<const char*> names;
  for (const BenchmarkInfo& info : all_benchmarks())
    names.push_back(info.name.c_str());
  return names;
}

INSTANTIATE_TEST_SUITE_P(Suite, AllProgramsTest,
                         ::testing::ValuesIn(all_names()));

}  // namespace
}  // namespace ucp::suite
