#include "ec/reed_solomon.h"

#include <cassert>
#include <cstring>

#include "ec/galois.h"

namespace gdedup {

ReedSolomon::ReedSolomon(int k, int m) : k_(k), m_(m) {
  assert(k >= 1 && m >= 0 && k + m <= 255);
  gen_.assign(static_cast<size_t>(k + m) * static_cast<size_t>(k), 0);
  // Identity for the data rows.
  for (int i = 0; i < k; i++) {
    gen_[static_cast<size_t>(i) * static_cast<size_t>(k) + static_cast<size_t>(i)] = 1;
  }
  // Cauchy rows: element (i, j) = 1 / (x_i ^ y_j), x_i = k + i, y_j = j.
  // x and y ranges are disjoint so x_i ^ y_j != 0.
  for (int i = 0; i < m; i++) {
    for (int j = 0; j < k; j++) {
      const uint8_t x = static_cast<uint8_t>(k + i);
      const uint8_t y = static_cast<uint8_t>(j);
      gen_[static_cast<size_t>(k + i) * static_cast<size_t>(k) +
           static_cast<size_t>(j)] = gf256::inv(x ^ y);
    }
  }
}

std::vector<Buffer> ReedSolomon::encode(const Buffer& data) const {
  const size_t slen = shard_len(data.size());
  std::vector<Buffer> shards;
  shards.reserve(static_cast<size_t>(k_ + m_));
  for (int i = 0; i < k_; i++) {
    Buffer s = Buffer::for_overwrite(slen);
    uint8_t* dst = s.mutable_data();
    const size_t off = static_cast<size_t>(i) * slen;
    const size_t n = off < data.size() ? std::min(slen, data.size() - off) : 0;
    if (n > 0) std::memcpy(dst, data.data() + off, n);
    if (n < slen) std::memset(dst + n, 0, slen - n);  // padding
    shards.push_back(std::move(s));
  }
  auto parity = encode_parity(shards);
  for (auto& p : parity) shards.push_back(std::move(p));
  return shards;
}

std::vector<Buffer> ReedSolomon::encode_parity(
    const std::vector<Buffer>& data) const {
  assert(static_cast<int>(data.size()) == k_);
  const size_t slen = data.empty() ? 0 : data[0].size();
  std::vector<Buffer> parity;
  parity.reserve(static_cast<size_t>(m_));
  for (int i = 0; i < m_; i++) {
    Buffer p(slen);
    uint8_t* dst = p.mutable_data();
    for (int j = 0; j < k_; j++) {
      assert(data[static_cast<size_t>(j)].size() == slen);
      gf256::mul_acc(dst, data[static_cast<size_t>(j)].data(), slen,
                     gen(k_ + i, j));
    }
    parity.push_back(std::move(p));
  }
  return parity;
}

Status ReedSolomon::invert(std::vector<uint8_t>& a, int n) {
  // Gauss-Jordan on [A | I] over GF(256); `a` is n x n row-major,
  // augmented in-place into a 2n-wide scratch.
  const size_t N = static_cast<size_t>(n);
  std::vector<uint8_t> aug(N * 2 * N, 0);
  for (size_t r = 0; r < N; r++) {
    std::memcpy(&aug[r * 2 * N], &a[r * N], N);
    aug[r * 2 * N + N + r] = 1;
  }
  for (size_t col = 0; col < N; col++) {
    size_t pivot = col;
    while (pivot < N && aug[pivot * 2 * N + col] == 0) pivot++;
    if (pivot == N) return Status::corruption("singular decode matrix");
    if (pivot != col) {
      for (size_t j = 0; j < 2 * N; j++) {
        std::swap(aug[pivot * 2 * N + j], aug[col * 2 * N + j]);
      }
    }
    const uint8_t inv_p = gf256::inv(aug[col * 2 * N + col]);
    for (size_t j = 0; j < 2 * N; j++) {
      aug[col * 2 * N + j] = gf256::mul(aug[col * 2 * N + j], inv_p);
    }
    for (size_t r = 0; r < N; r++) {
      if (r == col) continue;
      const uint8_t f = aug[r * 2 * N + col];
      if (f == 0) continue;
      for (size_t j = 0; j < 2 * N; j++) {
        aug[r * 2 * N + j] ^= gf256::mul(f, aug[col * 2 * N + j]);
      }
    }
  }
  for (size_t r = 0; r < N; r++) {
    std::memcpy(&a[r * N], &aug[r * 2 * N + N], N);
  }
  return Status::ok();
}

Status ReedSolomon::reconstruct(
    std::vector<std::optional<Buffer>>& shards) const {
  if (static_cast<int>(shards.size()) != k_ + m_) {
    return Status::invalid("wrong shard count");
  }
  std::vector<int> present;
  std::vector<int> missing;
  size_t slen = 0;
  for (int i = 0; i < k_ + m_; i++) {
    if (shards[static_cast<size_t>(i)].has_value()) {
      present.push_back(i);
      const size_t len = shards[static_cast<size_t>(i)]->size();
      if (slen == 0) {
        slen = len;
      } else if (len != slen) {
        return Status::invalid("unequal shard lengths");
      }
    } else {
      missing.push_back(i);
    }
  }
  if (missing.empty()) return Status::ok();
  if (static_cast<int>(present.size()) < k_) {
    return Status::corruption("too many shards lost");
  }

  // Decode matrix: first k present rows of the generator, inverted.
  std::vector<uint8_t> dm(static_cast<size_t>(k_) * static_cast<size_t>(k_));
  for (int r = 0; r < k_; r++) {
    for (int c = 0; c < k_; c++) {
      dm[static_cast<size_t>(r) * static_cast<size_t>(k_) +
         static_cast<size_t>(c)] = gen(present[static_cast<size_t>(r)], c);
    }
  }
  if (auto s = invert(dm, k_); !s.is_ok()) return s;

  // Recover data shards: data[j] = sum_r dm[j][r] * present_shard[r].
  std::vector<Buffer> data(static_cast<size_t>(k_));
  for (int j = 0; j < k_; j++) {
    if (j < k_ && shards[static_cast<size_t>(j)].has_value()) {
      data[static_cast<size_t>(j)] = *shards[static_cast<size_t>(j)];
      continue;
    }
    Buffer out(slen);
    uint8_t* dst = out.mutable_data();
    for (int r = 0; r < k_; r++) {
      gf256::mul_acc(dst,
                     shards[static_cast<size_t>(present[static_cast<size_t>(r)])]->data(),
                     slen,
                     dm[static_cast<size_t>(j) * static_cast<size_t>(k_) +
                        static_cast<size_t>(r)]);
    }
    data[static_cast<size_t>(j)] = std::move(out);
  }
  for (int j = 0; j < k_; j++) {
    if (!shards[static_cast<size_t>(j)].has_value()) {
      shards[static_cast<size_t>(j)] = data[static_cast<size_t>(j)];
    }
  }
  // Recompute any missing parity from the (now complete) data shards.
  bool parity_missing = false;
  for (int i = k_; i < k_ + m_; i++) {
    if (!shards[static_cast<size_t>(i)].has_value()) parity_missing = true;
  }
  if (parity_missing) {
    auto parity = encode_parity(data);
    for (int i = 0; i < m_; i++) {
      if (!shards[static_cast<size_t>(k_ + i)].has_value()) {
        shards[static_cast<size_t>(k_ + i)] = parity[static_cast<size_t>(i)];
      }
    }
  }
  return Status::ok();
}

Result<Buffer> ReedSolomon::decode(std::vector<std::optional<Buffer>> shards,
                                   size_t original_len) const {
  if (auto s = reconstruct(shards); !s.is_ok()) return s;
  Buffer out = Buffer::for_overwrite(original_len);
  uint8_t* dst = out.mutable_data();
  size_t copied = 0;
  for (int i = 0; i < k_ && copied < original_len; i++) {
    const Buffer& s = *shards[static_cast<size_t>(i)];
    const size_t n = std::min(s.size(), original_len - copied);
    std::memcpy(dst + copied, s.data(), n);
    copied += n;
  }
  // Past the shards (a length the shards cannot cover) reads as zeros.
  if (copied < original_len) std::memset(dst + copied, 0, original_len - copied);
  return out;
}

}  // namespace gdedup
