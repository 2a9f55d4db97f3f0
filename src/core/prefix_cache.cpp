#include "core/prefix_cache.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "hdf5/io.hpp"
#include "obs/obs.hpp"
#include "util/common.hpp"

namespace ckptfi::core {

namespace {

constexpr std::uint32_t kMagic = 0x43584650;  // "PFXC"
constexpr std::uint8_t kVersion = 2;  // 2: masks as u8 bytes

/// Sequential little-endian cursor over an mh5::Source — the read-side twin
/// of mh5::SinkWriter (the mh5 layer itself only does random access).
struct SourceReader {
  const mh5::Source& src;
  std::uint64_t off = 0;

  void raw(void* out, std::size_t n) {
    src.read_at(off, out, n);
    off += n;
  }
  std::uint8_t u8() {
    std::uint8_t v = 0;
    raw(&v, 1);
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    raw(&v, 4);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    raw(&v, 8);
    return v;
  }
  double f64() {
    double v = 0.0;
    raw(&v, 8);
    return v;
  }
  std::string str() {
    // SinkWriter::str prefixes a u32 length (the mh5 wire grammar).
    const std::uint32_t n = u32();
    require(n <= src.size(), "prefix spill: string length corrupt");
    std::string s(static_cast<std::size_t>(n), '\0');
    if (n > 0) raw(s.data(), static_cast<std::size_t>(n));
    return s;
  }
};

void write_u64_vec(mh5::SinkWriter& w, const std::vector<std::uint64_t>& v) {
  w.u64(v.size());
  if (!v.empty()) w.raw(v.data(), v.size() * sizeof(std::uint64_t));
}

void write_f64_vec(mh5::SinkWriter& w, const std::vector<double>& v) {
  w.u64(v.size());
  if (!v.empty()) w.raw(v.data(), v.size() * sizeof(double));
}

void write_u8_vec(mh5::SinkWriter& w, const std::vector<std::uint8_t>& v) {
  w.u64(v.size());
  if (!v.empty()) w.raw(v.data(), v.size());
}

std::vector<std::uint64_t> read_u64_vec(SourceReader& r) {
  const std::uint64_t n = r.u64();
  require(n <= r.src.size(), "prefix spill: u64 vector length corrupt");
  std::vector<std::uint64_t> v(static_cast<std::size_t>(n));
  if (n > 0) r.raw(v.data(), v.size() * sizeof(std::uint64_t));
  return v;
}

std::vector<double> read_f64_vec(SourceReader& r) {
  const std::uint64_t n = r.u64();
  require(n <= r.src.size(), "prefix spill: f64 vector length corrupt");
  std::vector<double> v(static_cast<std::size_t>(n));
  if (n > 0) r.raw(v.data(), v.size() * sizeof(double));
  return v;
}

std::vector<std::uint8_t> read_u8_vec(SourceReader& r) {
  const std::uint64_t n = r.u64();
  require(n <= r.src.size(), "prefix spill: u8 vector length corrupt");
  std::vector<std::uint8_t> v(static_cast<std::size_t>(n));
  if (n > 0) r.raw(v.data(), v.size());
  return v;
}

std::string spill_dir_from_env() {
  if (const char* d = std::getenv("CKPTFI_PREFIX_SPILL_DIR"); d && *d)
    return d;
  if (const char* t = std::getenv("TMPDIR"); t && *t) return t;
  return "/tmp";
}

}  // namespace

std::size_t PrefixEntryData::payload_bytes() const {
  std::size_t bytes = 0;
  for (const Tensor& t : boundary)
    bytes += t.numel() * sizeof(double) + t.shape().size() * sizeof(std::size_t);
  bytes += state.byte_size();
  for (const obs::RecordedPoint& rp : probe_prefix)
    bytes += rp.point.layer.size() + sizeof(obs::TensorStats);
  return bytes;
}

void write_prefix_entry(mh5::Sink& sink, const PrefixEntryData& entry) {
  mh5::SinkWriter w(sink);
  w.u32(kMagic);
  w.u8(kVersion);

  w.u64(entry.boundary.size());
  for (const Tensor& t : entry.boundary) {
    w.u64(t.shape().size());
    for (std::size_t d : t.shape()) w.u64(d);
    write_f64_vec(w, t.vec());
  }

  w.u64(entry.state.block_count());
  for (const nn::PrefixState::Block& b : entry.state.blocks()) {
    w.u8(static_cast<std::uint8_t>(b.tag));
    write_f64_vec(w, b.f64);
    write_u64_vec(w, b.u64);
    write_u8_vec(w, b.u8);
  }

  w.u64(entry.probe_prefix.size());
  for (const obs::RecordedPoint& rp : entry.probe_prefix) {
    w.str(rp.point.layer);
    w.u8(static_cast<std::uint8_t>(rp.point.phase));
    w.f64(rp.stats.l2);
    w.f64(rp.stats.max_abs);
    w.u64(rp.stats.nan_count);
    w.u64(rp.stats.inf_count);
    w.u64(rp.stats.zero_count);
    w.u64(rp.stats.numel);
  }
}

PrefixEntryData read_prefix_entry(const mh5::Source& src) {
  SourceReader r{src};
  require(r.u32() == kMagic, "prefix spill: bad magic");
  require(r.u8() == kVersion, "prefix spill: unsupported version");

  PrefixEntryData entry;
  const std::uint64_t n_boundary = r.u64();
  require(n_boundary <= src.size(), "prefix spill: boundary count corrupt");
  entry.boundary.reserve(static_cast<std::size_t>(n_boundary));
  for (std::uint64_t i = 0; i < n_boundary; ++i) {
    const std::uint64_t rank = r.u64();
    require(rank <= 8, "prefix spill: tensor rank corrupt");
    Shape shape(static_cast<std::size_t>(rank));
    for (std::uint64_t d = 0; d < rank; ++d)
      shape[static_cast<std::size_t>(d)] = static_cast<std::size_t>(r.u64());
    std::vector<double> data = read_f64_vec(r);
    require(data.size() == shape_numel(shape),
            "prefix spill: tensor payload/shape mismatch");
    Tensor t{shape};
    t.vec() = std::move(data);
    entry.boundary.push_back(std::move(t));
  }

  const std::uint64_t n_blocks = r.u64();
  require(n_blocks <= src.size(), "prefix spill: block count corrupt");
  for (std::uint64_t i = 0; i < n_blocks; ++i) {
    nn::PrefixState::Block b;
    b.tag = static_cast<nn::PrefixState::Tag>(r.u8());
    b.f64 = read_f64_vec(r);
    b.u64 = read_u64_vec(r);
    b.u8 = read_u8_vec(r);
    entry.state.append_block(std::move(b));
  }

  const std::uint64_t n_probe = r.u64();
  require(n_probe <= src.size(), "prefix spill: probe count corrupt");
  entry.probe_prefix.reserve(static_cast<std::size_t>(n_probe));
  for (std::uint64_t i = 0; i < n_probe; ++i) {
    obs::RecordedPoint rp;
    rp.point.layer = r.str();
    rp.point.phase = static_cast<obs::ProbePhase>(r.u8());
    rp.stats.l2 = r.f64();
    rp.stats.max_abs = r.f64();
    rp.stats.nan_count = r.u64();
    rp.stats.inf_count = r.u64();
    rp.stats.zero_count = r.u64();
    rp.stats.numel = r.u64();
    entry.probe_prefix.push_back(std::move(rp));
  }
  return entry;
}

std::size_t PrefixCache::default_budget() {
  constexpr std::size_t kDefaultMb = 256;
  std::size_t mb = kDefaultMb;
  if (const char* e = std::getenv("CKPTFI_PREFIX_CACHE_MB"); e && *e) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(e, &end, 10);
    if (end != e && *end == '\0') mb = static_cast<std::size_t>(v);
  }
  return mb * 1024 * 1024;
}

PrefixCache::PrefixCache(std::size_t budget_bytes)
    : budget_(budget_bytes), spill_dir_(spill_dir_from_env()) {}

PrefixCache::~PrefixCache() {
  for (const auto& [key, slot] : slots_) {
    (void)key;
    if (!slot.spill_path.empty()) std::remove(slot.spill_path.c_str());
  }
}

std::string PrefixCache::next_spill_path() {
  return spill_dir_ + "/ckptfi_prefix_" + std::to_string(::getpid()) + "_" +
         std::to_string(reinterpret_cast<std::uintptr_t>(this) & 0xffff) +
         "_" + std::to_string(spill_seq_++) + ".bin";
}

std::shared_ptr<const PrefixEntryData> PrefixCache::get_or_build(
    const PrefixKey& key, const Builder& build) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(key);
  if (it != slots_.end()) {
    Slot& slot = it->second;
    slot.last_use = ++tick_;
    if (slot.entry != nullptr) {
      ++hits_;
      obs::counter_add("prefix.hits");
      return slot.entry;
    }
    // Spilled: fault the bytes back in. The round-trip is bitwise lossless,
    // so a reloaded entry is indistinguishable from the resident one.
    mh5::FileSource src(slot.spill_path);
    auto entry =
        std::make_shared<const PrefixEntryData>(read_prefix_entry(src));
    slot.entry = entry;
    bytes_cached_ += slot.bytes;
    ++hits_;
    ++reloads_;
    obs::counter_add("prefix.hits");
    obs::counter_add("prefix.reloads");
    evict_over_budget(key);
    obs::gauge_set("prefix.bytes_cached", static_cast<double>(bytes_cached_));
    return entry;
  }

  // Miss: build under the lock. Builds serialize, but each trial group needs
  // exactly one, so contention is a startup cost, not a steady-state one.
  ++misses_;
  obs::counter_add("prefix.misses");
  auto entry = std::make_shared<const PrefixEntryData>(build());
  Slot slot;
  slot.entry = entry;
  slot.bytes = entry->payload_bytes();
  slot.last_use = ++tick_;
  bytes_cached_ += slot.bytes;
  slots_.emplace(key, std::move(slot));
  evict_over_budget(key);
  obs::gauge_set("prefix.bytes_cached", static_cast<double>(bytes_cached_));
  return entry;
}

void PrefixCache::evict_over_budget(const PrefixKey& keep) {
  while (bytes_cached_ > budget_) {
    auto victim = slots_.end();
    for (auto it = slots_.begin(); it != slots_.end(); ++it) {
      if (it->second.entry == nullptr) continue;  // already spilled
      if (!(it->first < keep) && !(keep < it->first)) continue;  // keep == key
      if (victim == slots_.end() ||
          it->second.last_use < victim->second.last_use)
        victim = it;
    }
    if (victim == slots_.end()) return;  // nothing evictable: over-budget stays
    Slot& slot = victim->second;
    if (slot.spill_path.empty()) {
      // First eviction of this entry: write the spill file. Best-effort — a
      // failed write (disk full) pins the entry in memory instead.
      const std::string path = next_spill_path();
      try {
        mh5::FileSink sink(path);
        write_prefix_entry(sink, *slot.entry);
        sink.commit();
        slot.spill_path = path;
      } catch (const std::exception&) {
        std::remove(path.c_str());
        return;
      }
    }
    slot.entry.reset();  // callers holding the shared_ptr keep their view
    bytes_cached_ -= slot.bytes;
    ++spills_;
    obs::counter_add("prefix.spills");
  }
}

std::uint64_t PrefixCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}
std::uint64_t PrefixCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}
std::uint64_t PrefixCache::spills() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spills_;
}
std::uint64_t PrefixCache::reloads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reloads_;
}
std::size_t PrefixCache::bytes_cached() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_cached_;
}

}  // namespace ckptfi::core
