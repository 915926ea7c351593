// Component microbenchmarks (google-benchmark): the building blocks whose
// calibrated costs drive the simulator — fingerprint hashing, rolling
// hash, chunking (fixed vs CDC — the Section 5 trade-off), LZ codec,
// Reed-Solomon, CRUSH selection, bloom filters, chunk-map codec — plus a
// double-hashing-vs-fingerprint-index lookup comparison.
//
// Extra modes (bypass google-benchmark):
//   --pipeline_json=PATH  run the content-pipeline suite (live vs frozen
//                         seed reference implementations) and write the
//                         BENCH_PIPELINE.json trajectory point to PATH
//   --smoke               same suite with tiny inputs/durations; used by
//                         the `bench_smoke` ctest to exercise the harness

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <string_view>
#include <unordered_map>

#include "bench_util.h"
#include "cluster/crush.h"
#include "common/bloom_filter.h"
#include "common/buffer.h"
#include "common/crc32.h"
#include "common/random.h"
#include "compress/lz.h"
#include "dedup/chunk_map.h"
#include "dedup/chunker.h"
#include "ec/galois.h"
#include "ec/reed_solomon.h"
#include "hash/fingerprint.h"
#include "hash/rabin.h"
#include "hash/sha1.h"
#include "hash/sha256.h"
#include "hash/weak_hash.h"
#include "reference_impls.h"
#include "sim_e2e_scenario.h"
#include "workload/content.h"

namespace gdedup {
namespace {

Buffer test_data(size_t n, double compressible = 0.0) {
  return workload::BlockContent::make(0xbead, n, compressible);
}

void BM_Sha256(benchmark::State& state) {
  Buffer data = test_data(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::of(data.span()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(4096)->Arg(32768)->Arg(131072);

void BM_Sha1(benchmark::State& state) {
  Buffer data = test_data(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::of(data.span()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(32768);

void BM_Crc32c(benchmark::State& state) {
  Buffer data = test_data(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c(data.span()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(32768);

void BM_RabinRoll(benchmark::State& state) {
  Buffer data = test_data(1 << 16);
  RabinRolling rh;
  for (auto _ : state) {
    uint64_t h = 0;
    for (uint8_t b : data.span()) h = rh.roll(b);
    benchmark::DoNotOptimize(h);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_RabinRoll);

void BM_FixedChunking(benchmark::State& state) {
  Buffer data = test_data(4 << 20);
  FixedChunker c(32 * 1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.split(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_FixedChunking);

void BM_CdcChunking(benchmark::State& state) {
  // The CPU cost the paper cites for rejecting CDC on the data path.
  Buffer data = test_data(4 << 20);
  CdcChunker c(8192, 32768, 131072);
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.split(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_CdcChunking);

void BM_LzCompress(benchmark::State& state) {
  Buffer data = test_data(32 * 1024, static_cast<double>(state.range(0)) / 100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LzCodec::compress(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_LzCompress)->Arg(0)->Arg(50)->Arg(90);

void BM_LzDecompress(benchmark::State& state) {
  Buffer comp = LzCodec::compress(test_data(32 * 1024, 0.5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(LzCodec::decompress(comp));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 32768);
}
BENCHMARK(BM_LzDecompress);

void BM_RsEncode(benchmark::State& state) {
  ReedSolomon rs(static_cast<int>(state.range(0)),
                 static_cast<int>(state.range(1)));
  Buffer data = test_data(1 << 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.encode(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_RsEncode)->Args({2, 1})->Args({4, 2})->Args({6, 3});

void BM_RsReconstruct(benchmark::State& state) {
  ReedSolomon rs(4, 2);
  Buffer data = test_data(1 << 20);
  auto shards = rs.encode(data);
  for (auto _ : state) {
    std::vector<std::optional<Buffer>> opt(shards.begin(), shards.end());
    opt[0].reset();
    opt[3].reset();
    benchmark::DoNotOptimize(rs.reconstruct(opt));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_RsReconstruct);

void BM_CrushSelect(benchmark::State& state) {
  CrushMap m;
  for (int i = 0; i < static_cast<int>(state.range(0)); i++) {
    m.add_device(i, i / 4);
  }
  uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.select(x++, 3));
  }
}
BENCHMARK(BM_CrushSelect)->Arg(16)->Arg(64)->Arg(256);

void BM_BloomInsertQuery(benchmark::State& state) {
  BloomFilter bf(100000, 0.01);
  uint64_t k = 0;
  for (auto _ : state) {
    bf.insert(k);
    benchmark::DoNotOptimize(bf.maybe_contains(k ^ 1));
    k++;
  }
}
BENCHMARK(BM_BloomInsertQuery);

void BM_ChunkMapCodec(benchmark::State& state) {
  ChunkMap cm;
  const int entries = static_cast<int>(state.range(0));
  const std::string fp =
      Fingerprint::compute(FingerprintAlgo::kSha256,
                           test_data(64).span())
          .hex();
  for (int i = 0; i < entries; i++) {
    ChunkMapEntry& e = cm.obtain(static_cast<uint64_t>(i) * 32768, 32768);
    e.chunk_id = fp;
    e.cached = (i % 2) == 0;
  }
  for (auto _ : state) {
    Buffer enc = cm.encode();
    benchmark::DoNotOptimize(ChunkMap::decode(enc));
  }
}
BENCHMARK(BM_ChunkMapCodec)->Arg(16)->Arg(128)->Arg(1024);

// Ablation: duplicate lookup via double hashing (placement function only,
// no index) vs a conventional in-memory fingerprint index.
void BM_LookupDoubleHashing(benchmark::State& state) {
  CrushMap m;
  for (int i = 0; i < 16; i++) m.add_device(i, i / 4);
  Buffer chunk = test_data(32 * 1024);
  for (auto _ : state) {
    // fingerprint -> OID -> placement; no table, scales with nothing.
    const Fingerprint fp =
        Fingerprint::compute(FingerprintAlgo::kSha256, chunk.span());
    benchmark::DoNotOptimize(m.select(fnv1a(fp.hex()), 2));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 32768);
}
BENCHMARK(BM_LookupDoubleHashing);

void BM_LookupFingerprintIndex(benchmark::State& state) {
  // Conventional design: fingerprint + probe of a (here: in-memory, in
  // reality memory-starved) index table.
  std::unordered_map<Fingerprint, uint64_t> index;
  Rng rng(5);
  for (int i = 0; i < static_cast<int>(state.range(0)); i++) {
    Buffer b(64);
    rng.fill(b.mutable_data(), b.size());
    index[Fingerprint::compute(FingerprintAlgo::kSha256, b.span())] =
        static_cast<uint64_t>(i);
  }
  Buffer chunk = test_data(32 * 1024);
  for (auto _ : state) {
    const Fingerprint fp =
        Fingerprint::compute(FingerprintAlgo::kSha256, chunk.span());
    benchmark::DoNotOptimize(index.find(fp));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 32768);
}
BENCHMARK(BM_LookupFingerprintIndex)->Arg(100000)->Arg(1000000);

// ------------------------------------------------- content-pipeline suite
//
// Measures the live implementations against the frozen seed copies in
// reference_impls.h, cross-checking outputs (digest / boundary mismatches
// abort), and writes a flat JSON document — the perf trajectory point.

int run_pipeline_suite(const std::string& json_path, bool smoke) {
  using bench::JsonWriter;
  using bench::WallTimer;
  using bench::measure_mbps;

  const double min_sec = smoke ? 0.02 : 0.25;
  const size_t hash_len = 32 * 1024;               // one chunk
  const size_t cdc_len = smoke ? (1 << 20) : (8 << 20);

  WallTimer total;
  JsonWriter j;
  j.add("schema", std::string("gdedup.bench_pipeline.v1"));
  j.add("mode", std::string(smoke ? "smoke" : "full"));

  Buffer hash_buf = test_data(hash_len);
  Buffer cdc_buf = test_data(cdc_len);

  // --- SHA-1 ---
  {
    const auto live = Sha1::of(hash_buf.span());
    const auto ref = bench::ref::Sha1::of(hash_buf.span());
    if (std::memcmp(live.data(), ref.data(), live.size()) != 0) {
      std::fprintf(stderr, "FATAL: sha1 fast path digest mismatch\n");
      return 1;
    }
    const double mbps = measure_mbps(
        [&] { benchmark::DoNotOptimize(Sha1::of(hash_buf.span())); },
        hash_len, min_sec);
    const double ref_mbps = measure_mbps(
        [&] { benchmark::DoNotOptimize(bench::ref::Sha1::of(hash_buf.span())); },
        hash_len, min_sec);
    j.add("sha1_mbps", mbps);
    j.add("sha1_ref_mbps", ref_mbps);
    j.add("sha1_speedup", mbps / ref_mbps);
  }

  // --- SHA-256 ---
  {
    const auto live = Sha256::of(hash_buf.span());
    const auto ref = bench::ref::Sha256::of(hash_buf.span());
    if (std::memcmp(live.data(), ref.data(), live.size()) != 0) {
      std::fprintf(stderr, "FATAL: sha256 fast path digest mismatch\n");
      return 1;
    }
    const double mbps = measure_mbps(
        [&] { benchmark::DoNotOptimize(Sha256::of(hash_buf.span())); },
        hash_len, min_sec);
    const double ref_mbps = measure_mbps(
        [&] {
          benchmark::DoNotOptimize(bench::ref::Sha256::of(hash_buf.span()));
        },
        hash_len, min_sec);
    j.add("sha256_mbps", mbps);
    j.add("sha256_ref_mbps", ref_mbps);
    j.add("sha256_speedup", mbps / ref_mbps);
  }

  // --- CRC32C ---
  {
    if (crc32c(hash_buf.span()) != bench::ref::crc32c_slice4(hash_buf.span())) {
      std::fprintf(stderr, "FATAL: crc32c fast path mismatch\n");
      return 1;
    }
    const double mbps = measure_mbps(
        [&] { benchmark::DoNotOptimize(crc32c(hash_buf.span())); }, hash_len,
        min_sec);
    const double ref_mbps = measure_mbps(
        [&] {
          benchmark::DoNotOptimize(bench::ref::crc32c_slice4(hash_buf.span()));
        },
        hash_len, min_sec);
    j.add("crc32c_mbps", mbps);
    j.add("crc32c_ref_mbps", ref_mbps);
    j.add("crc32c_speedup", mbps / ref_mbps);
  }

  // --- weak hash: 8-lane live hash vs the serial FNV it replaced; the
  //     value must equal the plain lane definition ---
  {
    const size_t lens[] = {0, 1, 63, 64, 65, 200, hash_len};
    for (size_t n : lens) {
      const auto s = hash_buf.span().subspan(0, n);
      if (WeakHasher::oneshot(s) != bench::ref::weak_hash_lanes(s)) {
        std::fprintf(stderr, "FATAL: weak hash != lane reference (len %zu)\n",
                     n);
        return 1;
      }
    }
    const double mbps = measure_mbps(
        [&] { benchmark::DoNotOptimize(WeakHasher::oneshot(hash_buf.span())); },
        hash_len, min_sec);
    const double ref_mbps = measure_mbps(
        [&] {
          benchmark::DoNotOptimize(
              bench::ref::weak_hash_serial(hash_buf.span()));
        },
        hash_len, min_sec);
    j.add("weak_hash_mbps", mbps);
    j.add("weak_hash_ref_mbps", ref_mbps);
    j.add("weak_hash_speedup", mbps / ref_mbps);
  }

  // --- GF(256) multiply-accumulate (EC encode's inner loop): live kernel
  //     vs the log/exp table loop, byte-identical for every constant ---
  {
    const uint8_t* src = hash_buf.data();
    std::vector<uint8_t> live(hash_len), ref(hash_len);
    for (int c = 0; c < 256; c++) {
      // Odd length and offset: the vector blocks and the scalar tail.
      const size_t n = hash_len - 1 - static_cast<size_t>(c);
      std::fill(live.begin(), live.end(), uint8_t(c));
      std::fill(ref.begin(), ref.end(), uint8_t(c));
      gf256::mul_acc(live.data(), src + c % 7, n, static_cast<uint8_t>(c));
      bench::ref::gf256_mul_acc(ref.data(), src + c % 7, n,
                                static_cast<uint8_t>(c));
      if (live != ref) {
        std::fprintf(stderr, "FATAL: gf256 mul_acc mismatch (c=%d)\n", c);
        return 1;
      }
    }
    constexpr uint8_t kCoef = 0x8e;  // a typical Cauchy coefficient
    const double mbps = measure_mbps(
        [&] {
          gf256::mul_acc(live.data(), src, hash_len, kCoef);
          benchmark::DoNotOptimize(live.data());
          benchmark::ClobberMemory();
        },
        hash_len, min_sec);
    const double ref_mbps = measure_mbps(
        [&] {
          bench::ref::gf256_mul_acc(ref.data(), src, hash_len, kCoef);
          benchmark::DoNotOptimize(ref.data());
          benchmark::ClobberMemory();
        },
        hash_len, min_sec);
    j.add("gf256_mul_acc_mbps", mbps);
    j.add("gf256_mul_acc_ref_mbps", ref_mbps);
    j.add("gf256_mul_acc_speedup", mbps / ref_mbps);
  }

  // --- fixed chunking ---
  {
    FixedChunker c(32 * 1024);
    const double mbps = measure_mbps(
        [&] { benchmark::DoNotOptimize(c.split(cdc_buf)); }, cdc_len, min_sec);
    j.add("fixed_mbps", mbps);
  }

  // --- CDC chunking: fast split vs frozen seed split ---
  {
    CdcChunker c(8192, 32768, 131072);
    const auto fast = c.split(cdc_buf);
    const auto ref = bench::ref::cdc_split(cdc_buf, 8192, 32768, 131072);
    bool same = fast.size() == ref.size();
    for (size_t i = 0; same && i < fast.size(); i++) {
      same = fast[i].offset == ref[i].offset &&
             fast[i].data.size() == ref[i].data.size();
    }
    if (!same) {
      std::fprintf(stderr, "FATAL: cdc fast path boundary mismatch\n");
      return 1;
    }
    const double mbps = measure_mbps(
        [&] { benchmark::DoNotOptimize(c.split(cdc_buf)); }, cdc_len, min_sec);
    const double ref_mbps = measure_mbps(
        [&] {
          benchmark::DoNotOptimize(
              bench::ref::cdc_split(cdc_buf, 8192, 32768, 131072));
        },
        cdc_len, min_sec);
    j.add("cdc_mbps", mbps);
    j.add("cdc_ref_mbps", ref_mbps);
    j.add("cdc_speedup", mbps / ref_mbps);
  }

  // --- sim-e2e smoke digest: any exec-thread count must reproduce the
  //     frozen serial reference bit-for-bit ---
  {
    bench::SimE2eConfig cfg;
    cfg.image_bytes = 4ull << 20;
    cfg.preload_block = 64 * 1024;
    cfg.random_writes = 128;
    cfg.random_reads = 128;
    cfg.exec_threads = 0;  // ambient GDEDUP_EXEC_THREADS (default 1)
    const bench::SimE2eResult r = bench::run_sim_e2e(cfg);
    // Frozen from the serial (1-worker) run of this exact smoke scenario.
    // Re-frozen for the sharded event engine (receiver-sequenced rx +
    // global control lane; see tests/test_sim_determinism.cc), and again
    // when the always-zero fingerprint-memo count left the digest.
    constexpr const char* kSerialSmokeDigest = "4459a144";
    if (r.digest != kSerialSmokeDigest) {
      std::fprintf(stderr,
                   "FATAL: sim-e2e smoke digest %s != frozen serial "
                   "reference %s (exec_threads=%d)\n",
                   r.digest.c_str(), kSerialSmokeDigest, r.exec_threads_used);
      return 1;
    }
    j.add("sim_e2e_smoke_digest", r.digest);
    j.add("sim_e2e_exec_threads", static_cast<double>(r.exec_threads_used));
    j.add("sim_e2e_kernel_jobs_offloaded",
          static_cast<double>(r.kernel_jobs_offloaded));
  }

  j.add("wall_sec", total.elapsed_sec());

  const std::string doc = j.str();
  std::fputs(doc.c_str(), stdout);
  if (!json_path.empty()) {
    if (!j.write_file(json_path)) {
      std::fprintf(stderr, "FATAL: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace gdedup

int main(int argc, char** argv) {
  std::string json_path;
  bool smoke = false;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; i++) {
    const std::string_view a = argv[i];
    if (a.rfind("--pipeline_json=", 0) == 0) {
      json_path = std::string(a.substr(std::strlen("--pipeline_json=")));
    } else if (a == "--smoke") {
      smoke = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!json_path.empty() || smoke) {
    return gdedup::run_pipeline_suite(json_path, smoke);
  }
  int pargc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pargc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pargc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
