// Seeded mutation tests for the mh5 v2 reader. Every input the reader parses
// can be torn or hostile, so each mutated container must end in a clean
// load or a FormatError: never a crash, a hang, an unbounded allocation or
// another exception type. Two families:
//   - structure: flip or overwrite bytes inside the tree and TOC/footer
//     ranges only (payloads untouched), then drive every reader entry point;
//   - payload: overwrite payload bytes and recompute the TOC CRCs so the
//     bytes get past the integrity check, then run the N-EV scan and the
//     framework loader over them.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/nev.hpp"
#include "frameworks/framework.hpp"
#include "hdf5/file.hpp"
#include "models/models.hpp"
#include "util/common.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace ckptfi::mh5 {
namespace {

using Bytes = std::vector<std::uint8_t>;

/// A small v2 container: nested groups, attributes of all three kinds and
/// one dataset of every dtype, rank 0 to 3.
Bytes sample_container() {
  File f;
  f.root().set_attr("framework", std::string("chainer"));
  f.root().set_attr("epoch", std::int64_t{7});
  f.root().set_attr("lr", 0.01);
  f.create_dataset("predictor/conv1/W", DType::F32, {2, 1, 3, 3});
  f.create_dataset("predictor/conv1/b", DType::F16, {2});
  f.create_dataset("predictor/fc/W", DType::F64, {3, 2});
  f.create_dataset("meta/step", DType::I64, {});
  f.create_dataset("meta/ids", DType::I32, {4});
  f.create_dataset("meta/mask", DType::U8, {5});
  f.find("predictor")->set_attr("kind", std::string("model"));
  std::uint64_t k = 0;
  f.visit([&](const std::string&, const Node& node) {
    if (!node.is_dataset()) return;
    auto& ds = const_cast<Dataset&>(node.dataset());
    for (std::uint64_t i = 0; i < ds.num_elements(); ++i)
      ds.set_double(i, static_cast<double>(++k) * 0.25);
  });
  return f.serialize();
}

/// Where the TOC starts and where each entry's offset/nbytes/crc fields
/// live, parsed straight from the bytes per docs/MH5_FORMAT.md.
struct TocLayout {
  std::size_t toc_offset = 0;
  std::size_t tree_end = 0;
  struct Entry {
    std::uint64_t offset;
    std::uint64_t nbytes;
    std::size_t crc_at;  ///< byte position of the entry's crc32 field
  };
  std::vector<Entry> entries;
};

template <typename T>
T read_le(const Bytes& b, std::size_t at) {
  T v;
  std::memcpy(&v, b.data() + at, sizeof(T));
  return v;
}

TocLayout toc_layout(const Bytes& b) {
  TocLayout t;
  t.toc_offset =
      static_cast<std::size_t>(read_le<std::uint64_t>(b, b.size() - 8));
  t.tree_end = t.toc_offset;
  std::size_t at = t.toc_offset;
  const auto count = read_le<std::uint32_t>(b, at);
  at += 4;
  for (std::uint32_t i = 0; i < count; ++i) {
    at += 4 + read_le<std::uint32_t>(b, at);  // path
    TocLayout::Entry e{read_le<std::uint64_t>(b, at),
                       read_le<std::uint64_t>(b, at + 8), at + 16};
    at += 20;
    t.tree_end = std::min<std::size_t>(t.tree_end, e.offset);
    t.entries.push_back(e);
  }
  return t;
}

/// Overwrite 1-3 bytes (or one u32 with an edge value) inside [lo, hi).
void mutate(Bytes& b, std::size_t lo, std::size_t hi, Rng& rng) {
  const int edits = 1 + static_cast<int>(rng.uniform_u64(3));
  for (int e = 0; e < edits; ++e) {
    const std::size_t at = lo + rng.uniform_u64(hi - lo);
    switch (rng.uniform_u64(4)) {
      case 0:
        b[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_u64(8));
        break;
      case 1:
        b[at] = static_cast<std::uint8_t>(rng.next_u64());
        break;
      case 2: {
        const std::uint8_t edge[] = {0x00, 0x01, 0x7f, 0x80, 0xff};
        b[at] = edge[rng.uniform_u64(5)];
        break;
      }
      default: {
        const std::uint32_t edge[] = {0u, 1u, 0x7fffffffu, 0x80000000u,
                                      0xffffffffu};
        const std::uint32_t v = edge[rng.uniform_u64(5)];
        const std::size_t n = std::min<std::size_t>(4, hi - at);
        std::memcpy(b.data() + at, &v, n);
        break;
      }
    }
  }
}

/// Every reader entry point over `bytes`. Returns "" when each ended in a
/// clean load or a FormatError, else what went wrong.
std::string drive(const Bytes& bytes) {
  std::string failure;
  const auto guarded = [&](const char* what, const auto& fn) {
    try {
      fn();
    } catch (const FormatError&) {
    } catch (const std::exception& e) {
      failure += std::string(what) + ": " + e.what() + "; ";
    }
  };
  guarded("deserialize", [&] {
    const File f = File::deserialize(bytes);
    // A tree the reader accepted must write back and read back.
    const File again = File::deserialize(f.serialize());
    (void)again;
  });
  guarded("deserialize_lazy", [&] {
    const File f =
        File::deserialize_lazy(std::make_shared<const Bytes>(bytes));
    (void)core::scan_checkpoint(f);
    for (const auto& p : f.dataset_paths()) f.dataset(p).materialize();
    (void)f.total_entries();
  });
  return failure;
}

TEST(Mh5Mutation, StructureBytesLoadCleanlyOrThrowFormatError) {
  const Bytes clean = sample_container();
  const TocLayout layout = toc_layout(clean);
  ASSERT_EQ(drive(clean), "");
  ASSERT_GT(layout.tree_end, 8u);

  Rng rng(2024);
  std::size_t loaded = 0;
  std::size_t refused = 0;
  for (int i = 0; i < 6000; ++i) {
    Bytes b = clean;
    // Half the cases hit the tree, half the TOC and its footer.
    if (i % 2 == 0) {
      mutate(b, 8, layout.tree_end, rng);
    } else {
      mutate(b, layout.toc_offset, b.size(), rng);
    }
    const std::string failure = drive(b);
    ASSERT_EQ(failure, "") << "case " << i;
    try {
      File::deserialize(b);
      ++loaded;
    } catch (const FormatError&) {
      ++refused;
    }
  }
  // Both outcomes occur: the mutations reach past the first check.
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(refused, 0u);
}

TEST(Mh5Mutation, DeepGroupNestingIsRefused) {
  // A hand-built tree of 100000 nested groups (each: kind 0, no attrs, one
  // child "g") must be refused without recursing 100000 frames deep.
  Bytes b = {'M', 'H', '5', 'F', 2, 0, 0, 0};
  const std::uint8_t level[] = {0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 'g'};
  for (int i = 0; i < 100000; ++i) b.insert(b.end(), level, level + 14);
  const std::uint64_t toc_offset = b.size();
  b.insert(b.end(), {0, 0, 0, 0});  // empty TOC
  const auto* off = reinterpret_cast<const std::uint8_t*>(&toc_offset);
  b.insert(b.end(), off, off + 8);
  EXPECT_THROW(File::deserialize(b), FormatError);
}

TEST(Mh5Mutation, OverflowingDimsAreRefused) {
  // dims {2^62 + 3} as f32: the byte count wraps to 12, which would match a
  // 12-byte payload and index far past it.
  File f;
  f.create_dataset("w", DType::F32, {3});
  Bytes b = f.serialize();
  const TocLayout layout = toc_layout(b);
  const std::uint64_t three = 3;
  const std::uint64_t wrapped = (std::uint64_t{1} << 62) + 3;
  for (std::size_t at = 8; at + 8 <= layout.tree_end; ++at) {
    if (read_le<std::uint64_t>(b, at) == three) {
      std::memcpy(b.data() + at, &wrapped, 8);
    }
  }
  EXPECT_THROW(File::deserialize(b), FormatError);
  EXPECT_THROW(File::deserialize_lazy(std::make_shared<const Bytes>(b)),
               FormatError);
}

TEST(Mh5Mutation, PayloadBytesWithFixedCrcsScanAndLoad) {
  models::ModelConfig cfg;
  cfg.width = 2;
  auto model = models::make_mini_alexnet(cfg);
  model->init(3);
  Rng rng(99);
  for (const int bits : {16, 32, 64}) {
    for (const std::string fw : {"chainer", "tensorflow"}) {
      const auto adapter = fw::make_adapter(fw);
      const Bytes clean =
          adapter->checkpoint_to_file(*model, bits, 2).serialize();
      const TocLayout layout = toc_layout(clean);
      for (int i = 0; i < 150; ++i) {
        Bytes b = clean;
        const auto& e = layout.entries[rng.uniform_u64(layout.entries.size())];
        mutate(b, static_cast<std::size_t>(e.offset),
               static_cast<std::size_t>(e.offset + e.nbytes), rng);
        for (const auto& entry : layout.entries) {
          const std::uint32_t crc = crc32(
              b.data() + entry.offset, static_cast<std::size_t>(entry.nbytes));
          std::memcpy(b.data() + entry.crc_at, &crc, 4);
        }
        SCOPED_TRACE(fw + " f" + std::to_string(bits) + " case " +
                     std::to_string(i));
        ASSERT_EQ(drive(b), "");
        const File f =
            File::deserialize_lazy(std::make_shared<const Bytes>(b));
        EXPECT_NO_THROW(adapter->load_from_file(*model, f));
        EXPECT_EQ(core::scan_checkpoint(f).total,
                  core::scan_checkpoint(File::deserialize(clean)).total);
      }
    }
  }
}

}  // namespace
}  // namespace ckptfi::mh5
