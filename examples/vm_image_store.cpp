// VM image store: the paper's motivating cloud scenario.
//
// Ten VM images cloned from one OS template land in a dedup-enabled,
// erasure-coded, compressed chunk pool.  Prints capacity after each image
// and the marginal cost of one more clone — the Figure 13 story as an
// application.
//
//   $ ./vm_image_store [images=10] [image_mb=32]

#include <cstdio>

#include "common/options.h"
#include "common/histogram.h"
#include "rados/cluster.h"
#include "rados/sync.h"
#include "workload/vm_corpus.h"

using namespace gdedup;

int main(int argc, char** argv) {
  Options opts(argc, argv, "images=<count> image_mb=<MB per image>");
  const int images = static_cast<int>(opts.get_int("images", 10));
  workload::VmImageConfig vcfg;
  vcfg.image_bytes = static_cast<uint64_t>(opts.get_int("image_mb", 32)) << 20;
  opts.check_unused();

  Cluster cluster;
  const PoolId meta = cluster.create_replicated_pool("images-meta", 2);
  // Cold image data: erasure-coded 2+1 with at-rest compression.
  const PoolId chunks =
      cluster.create_ec_pool("images-chunks", 2, 1, 128, /*compress=*/true);
  DedupTierConfig tier;
  tier.mode = DedupMode::kPostProcess;
  tier.chunk_size = 32 * 1024;
  tier.rate_control = false;     // bulk ingest: drain between images
  tier.max_dedup_per_tick = 4096;
  cluster.enable_dedup(meta, chunks, tier);

  RadosClient client(&cluster, cluster.client_node(0));
  workload::VmImageCorpus corpus(vcfg);

  std::printf("ingesting %d x %s images (shared OS base + unique home + "
              "zero tail)\n\n",
              images, format_bytes(static_cast<double>(vcfg.image_bytes)).c_str());
  std::printf("%-8s %16s %16s %14s\n", "image", "logical total",
              "physical total", "marginal");
  std::printf("%s\n", std::string(58, '-').c_str());

  uint64_t prev_physical = 0;
  const uint64_t obj_bytes = 4 << 20;
  const uint64_t blocks_per_obj = obj_bytes / vcfg.block_size;
  for (int vm = 0; vm < images; vm++) {
    for (uint64_t first = 0; first < corpus.blocks_per_image();
         first += blocks_per_obj) {
      Buffer obj;
      for (uint64_t j = 0;
           j < blocks_per_obj && first + j < corpus.blocks_per_image(); j++) {
        obj = Buffer::concat(obj, corpus.image_block(vm, first + j));
      }
      const std::string oid = "vm" + std::to_string(vm) + ".obj." +
                              std::to_string(first / blocks_per_obj);
      Status s = sync_write_full(cluster, client, meta, oid, std::move(obj));
      if (!s.is_ok()) {
        std::fprintf(stderr, "ingest failed: %s\n", s.to_string().c_str());
        return 1;
      }
    }
    cluster.drain_dedup();
    const uint64_t physical = cluster.total_physical_bytes();
    std::printf("%-8d %16s %16s %14s\n", vm + 1,
                format_bytes(static_cast<double>(vcfg.image_bytes) * (vm + 1)).c_str(),
                format_bytes(static_cast<double>(physical)).c_str(),
                format_bytes(static_cast<double>(physical - prev_physical)).c_str());
    prev_physical = physical;
  }

  std::printf("\nengine: %llu chunks flushed, %llu evictions, %llu derefs\n",
              static_cast<unsigned long long>(
                  cluster.perf_sum(l_tier_chunks_flushed, meta)),
              static_cast<unsigned long long>(
                  cluster.perf_sum(l_tier_evictions, meta)),
              static_cast<unsigned long long>(
                  cluster.perf_sum(l_tier_derefs, meta)));

  // Verify a clone end to end.
  Buffer expect = corpus.image_block(images - 1, 0);
  auto r = sync_read(cluster, client, meta,
                     "vm" + std::to_string(images - 1) + ".obj.0", 0,
                     expect.size());
  if (!r.is_ok() || !r->content_equals(expect)) {
    std::fprintf(stderr, "verification failed!\n");
    return 1;
  }
  std::printf("verified first block of the last image reads back intact.\n");
  return 0;
}
