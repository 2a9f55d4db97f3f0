#include "nn/prefix_state.hpp"

#include "util/common.hpp"

namespace ckptfi::nn {

void PrefixState::put_tensor(const Tensor& t) {
  Block b;
  b.tag = Tag::kTensor;
  b.u64.reserve(t.shape().size());
  for (const std::size_t d : t.shape()) b.u64.push_back(d);
  b.f64 = t.vec();
  blocks_.push_back(std::move(b));
}

void PrefixState::put_mask(const std::vector<std::uint8_t>& m) {
  Block b;
  b.tag = Tag::kMask;
  b.u8 = m;
  blocks_.push_back(std::move(b));
}

void PrefixState::put_indices(const std::vector<std::size_t>& v) {
  Block b;
  b.tag = Tag::kIndices;
  b.u64.reserve(v.size());
  for (const std::size_t i : v) b.u64.push_back(i);
  blocks_.push_back(std::move(b));
}

void PrefixState::put_shape(const Shape& s) {
  Block b;
  b.tag = Tag::kShape;
  b.u64.reserve(s.size());
  for (const std::size_t d : s) b.u64.push_back(d);
  blocks_.push_back(std::move(b));
}

void PrefixState::put_scalars(const std::vector<double>& v) {
  Block b;
  b.tag = Tag::kScalars;
  b.f64 = v;
  blocks_.push_back(std::move(b));
}

std::size_t PrefixState::byte_size() const {
  std::size_t n = 0;
  for (const Block& b : blocks_) {
    n += b.f64.size() * sizeof(double) +
         b.u64.size() * sizeof(std::uint64_t) + b.u8.size();
  }
  return n;
}

const PrefixState::Block& PrefixStateReader::next(PrefixState::Tag expected) {
  require(cursor_ < state_->block_count(),
          "PrefixStateReader: ran past the captured state (capture/restore "
          "traversed different layers)");
  const PrefixState::Block& b = state_->blocks()[cursor_++];
  require(b.tag == expected,
          "PrefixStateReader: block tag mismatch (capture/restore traversed "
          "different layers)");
  return b;
}

void PrefixStateReader::take_tensor(Tensor& t) {
  const PrefixState::Block& b = next(PrefixState::Tag::kTensor);
  Shape shape;
  shape.reserve(b.u64.size());
  for (const std::uint64_t d : b.u64) {
    shape.push_back(static_cast<std::size_t>(d));
  }
  t = Tensor(shape);
  require(t.numel() == b.f64.size(),
          "PrefixStateReader: tensor payload/shape mismatch");
  for (std::size_t i = 0; i < b.f64.size(); ++i) t[i] = b.f64[i];
}

void PrefixStateReader::take_mask(std::vector<std::uint8_t>& m) {
  const PrefixState::Block& b = next(PrefixState::Tag::kMask);
  m.resize(b.u8.size());
  for (std::size_t i = 0; i < b.u8.size(); ++i) m[i] = b.u8[i] != 0;
}

void PrefixStateReader::take_indices(std::vector<std::size_t>& v) {
  const PrefixState::Block& b = next(PrefixState::Tag::kIndices);
  v.assign(b.u64.size(), 0);
  for (std::size_t i = 0; i < b.u64.size(); ++i) {
    v[i] = static_cast<std::size_t>(b.u64[i]);
  }
}

void PrefixStateReader::take_shape(Shape& s) {
  const PrefixState::Block& b = next(PrefixState::Tag::kShape);
  s.clear();
  s.reserve(b.u64.size());
  for (const std::uint64_t d : b.u64) s.push_back(static_cast<std::size_t>(d));
}

void PrefixStateReader::take_scalars(std::vector<double>& v) {
  const PrefixState::Block& b = next(PrefixState::Tag::kScalars);
  v = b.f64;
}

}  // namespace ckptfi::nn
