#include "sra/sra.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/io_util.hpp"

namespace cudalign::sra {

Index flush_interval_for_budget(Index m, Index n, Index strip_rows, std::int64_t budget_bytes) {
  CUDALIGN_CHECK(m >= 0 && n >= 0 && strip_rows > 0, "invalid matrix geometry");
  const std::int64_t row_bytes = 8 * (n + 1);  // Two 4-byte values per cell (§IV-B).
  CUDALIGN_CHECK(budget_bytes >= row_bytes,
                 "SRA must be at least the size of one special row (paper §IV-B)");
  // ceil(8*m*n / (strip_rows * |SRA|)), clamped to >= 1: the paper's formula
  // with alpha*T = strip_rows.
  const std::int64_t strips = (m + strip_rows - 1) / strip_rows;
  const std::int64_t max_rows = budget_bytes / row_bytes;
  if (max_rows >= strips) return 1;
  return static_cast<Index>((strips + max_rows - 1) / max_rows);
}

namespace {

constexpr std::uint32_t kManifestMagic = 0x53524132;  // "SRA2" (v1 was 0x53524131).
constexpr std::uint32_t kRowMagic = 0x53524157;       // "SRAW"

/// Self-describing header at the start of every row file: a row file torn
/// loose from its store (or handed a stale index) still names exactly what
/// it holds, and the CRC proves the payload is the one that was written.
struct RowFileHeader {
  std::uint32_t magic = kRowMagic;
  std::uint16_t version = kSraFormatVersion;
  std::uint16_t reserved = 0;
  RowKey key;
  std::uint64_t cell_count = 0;
  std::uint32_t payload_crc = 0;
  std::uint32_t reserved2 = 0;
};
static_assert(sizeof(RowFileHeader) == 8 + sizeof(RowKey) + 16);

}  // namespace

SpecialRowsArea::SpecialRowsArea(std::filesystem::path directory, std::int64_t budget_bytes,
                                 Durability durability)
    : dir_(std::move(directory)), budget_(budget_bytes), durability_(durability) {
  CUDALIGN_CHECK(budget_ > 0, "SRA budget must be positive");
  std::filesystem::create_directories(dir_);
  if (std::filesystem::exists(dir_ / "manifest.bin")) load_manifest();
  // Sweep torn durable writes: a crash between "write tmp" and "rename" can
  // only leave `*.tmp` files, which no manifest references.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() == ".tmp") {
      std::error_code ec;
      std::filesystem::remove(entry.path(), ec);
    }
  }
}

void SpecialRowsArea::save_manifest() const {
  std::ostringstream buffer(std::ios::binary);
  constexpr std::uint16_t kReserved = 0;
  write_pod(buffer, kManifestMagic);
  write_pod(buffer, kSraFormatVersion);
  write_pod(buffer, kReserved);
  write_pod(buffer, static_cast<std::uint64_t>(keys_.size()));
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    write_pod(buffer, keys_[i]);
    write_pod(buffer, sizes_[i]);
    write_pod(buffer, crcs_[i]);
    // Provably lossless: serializing a bool as a manifest byte, the source
    // domain is {0, 1}.
    write_pod(buffer, static_cast<std::uint8_t>(live_[i] ? 1 : 0));  // cudalint: allow(narrow-cast)
  }
  const std::string bytes = buffer.str();
  const auto manifest = dir_ / "manifest.bin";
  if (durability_ == Durability::kDurable) {
    atomic_write_file_durable(manifest, bytes);
  } else {
    // Write-then-rename keeps the manifest consistent under normal exits;
    // kFast makes no promises about crashes mid-write.
    const auto tmp = dir_ / "manifest.bin.tmp";
    write_file(tmp, bytes);
    std::filesystem::rename(tmp, manifest);
  }
}

void SpecialRowsArea::load_manifest() {
  std::ifstream is(dir_ / "manifest.bin", std::ios::binary);
  CUDALIGN_CHECK(is.good(), "cannot open SRA manifest");
  CUDALIGN_CHECK(read_pod<std::uint32_t>(is) == kManifestMagic,
                 "bad SRA manifest magic (not an SRA store, or a pre-v2 format: "
                 "old stores are refused, not reinterpreted)");
  const auto version = read_pod<std::uint16_t>(is);
  CUDALIGN_CHECK(version == kSraFormatVersion,
                 "SRA store has format version ", version, " but this build reads version ",
                 kSraFormatVersion, " — refusing to reinterpret it");
  (void)read_pod<std::uint16_t>(is);  // Reserved.
  const auto count = read_pod<std::uint64_t>(is);
  keys_.clear();
  sizes_.clear();
  crcs_.clear();
  live_.clear();
  used_ = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    keys_.push_back(read_pod<RowKey>(is));
    sizes_.push_back(read_pod<std::int64_t>(is));
    crcs_.push_back(read_pod<std::uint32_t>(is));
    const bool live = read_pod<std::uint8_t>(is) != 0;
    live_.push_back(live);
    if (live) {
      const auto file = file_for(keys_.size() - 1);
      CUDALIGN_CHECK(std::filesystem::exists(file),
                     "SRA manifest references a missing row file: " + file.string());
      const auto expected =
          static_cast<std::uintmax_t>(sizes_.back()) + sizeof(RowFileHeader);
      const auto actual = std::filesystem::file_size(file);
      CUDALIGN_CHECK(actual == expected, "SRA row file ", file.string(), " is truncated: ",
                     actual, " bytes on disk, expected ", expected);
      used_ += sizes_.back();
    }
  }
  CUDALIGN_CHECK(used_ <= budget_, "recovered SRA exceeds the configured budget");
  peak_ = used_;
  written_ = used_;
}

std::filesystem::path SpecialRowsArea::file_for(std::size_t index) const {
  return dir_ / ("sra-" + std::to_string(index) + ".bin");
}

std::size_t SpecialRowsArea::put(const RowKey& key, std::span<const engine::BusCell> cells) {
  CUDALIGN_CHECK(key.end - key.begin + 1 == static_cast<Index>(cells.size()),
                 "special row cell count does not match its key range");
  const auto bytes = static_cast<std::int64_t>(cells.size_bytes());
  CUDALIGN_CHECK(used_ + bytes <= budget_,
                 "SRA budget exceeded; flush interval was sized incorrectly");
  const std::size_t index = keys_.size();

  RowFileHeader header;
  header.key = key;
  header.cell_count = cells.size();
  header.payload_crc = common::crc32(cells.data(), cells.size_bytes());

  const auto file = file_for(index);
  if (durability_ == Durability::kDurable) {
    std::string buffer(sizeof(header) + cells.size_bytes(), '\0');
    std::memcpy(buffer.data(), &header, sizeof(header));
    std::memcpy(buffer.data() + sizeof(header), cells.data(), cells.size_bytes());
    std::filesystem::path tmp = file;
    tmp += ".tmp";
    write_file_durable(tmp, buffer.data(), buffer.size());
    replace_file_durable(tmp, file);
  } else {
    std::ofstream os(file, std::ios::binary | std::ios::trunc);
    CUDALIGN_CHECK(os.good(), "cannot open SRA file for writing");
    write_pod(os, header);
    write_span(os, cells);
    close_checked(os, file);
  }
  keys_.push_back(key);
  live_.push_back(true);
  sizes_.push_back(bytes);
  crcs_.push_back(header.payload_crc);
  used_ += bytes;
  written_ += bytes;
  peak_ = std::max(peak_, used_);
  save_manifest();
  return index;
}

std::vector<engine::BusCell> SpecialRowsArea::get(std::size_t index) const {
  CUDALIGN_CHECK(index < keys_.size() && live_[index], "SRA row does not exist");
  const RowKey& key = keys_[index];
  const auto file = file_for(index);
  std::ifstream is(file, std::ios::binary);
  CUDALIGN_CHECK(is.good(), "cannot open SRA file for reading: " + file.string());
  const auto header = read_pod<RowFileHeader>(is);
  CUDALIGN_CHECK(header.magic == kRowMagic, "SRA row file ", file.string(),
                 " has a bad magic — not an SRA row");
  CUDALIGN_CHECK(header.version == kSraFormatVersion, "SRA row file ", file.string(),
                 " has format version ", header.version, ", expected ", kSraFormatVersion);
  CUDALIGN_CHECK(header.key.position == key.position && header.key.begin == key.begin &&
                     header.key.end == key.end && header.key.group == key.group,
                 "SRA row file ", file.string(), " describes a different row than the manifest");
  CUDALIGN_CHECK(header.cell_count == static_cast<std::uint64_t>(key.end - key.begin + 1),
                 "SRA row file ", file.string(), " cell count does not match its key range");
  std::vector<engine::BusCell> cells(static_cast<std::size_t>(key.end - key.begin + 1));
  read_span(is, std::span<engine::BusCell>(cells));
  const std::uint32_t crc = common::crc32(cells.data(), cells.size() * sizeof(engine::BusCell));
  CUDALIGN_CHECK(crc == header.payload_crc && crc == crcs_[index],
                 "SRA row file ", file.string(),
                 " failed its CRC-32 check — the payload on disk is corrupt");
  read_ += static_cast<std::int64_t>(cells.size() * sizeof(engine::BusCell));
  ++rows_read_;
  return cells;
}

const RowKey& SpecialRowsArea::key(std::size_t index) const {
  CUDALIGN_CHECK(index < keys_.size() && live_[index], "SRA row does not exist");
  return keys_[index];
}

std::vector<std::size_t> SpecialRowsArea::group_members(std::int64_t group) const {
  std::vector<std::size_t> members;
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (live_[i] && keys_[i].group == group) members.push_back(i);
  }
  std::sort(members.begin(), members.end(), [&](std::size_t a, std::size_t b) {
    return keys_[a].position < keys_[b].position;
  });
  return members;
}

void SpecialRowsArea::remove_row_file(std::size_t index) {
  std::error_code ec;
  std::filesystem::remove(file_for(index), ec);
  live_[index] = false;
  used_ -= sizes_[index];
}

void SpecialRowsArea::drop_row(std::size_t index) {
  CUDALIGN_CHECK(index < keys_.size() && live_[index], "SRA row does not exist");
  remove_row_file(index);
  save_manifest();
}

void SpecialRowsArea::drop_group(std::int64_t group) {
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (live_[i] && keys_[i].group == group) remove_row_file(i);
  }
  if (!keys_.empty()) save_manifest();
}

void SpecialRowsArea::drop_all() {
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (live_[i]) {
      std::error_code ec;
      std::filesystem::remove(file_for(i), ec);
    }
  }
  keys_.clear();
  live_.clear();
  sizes_.clear();
  crcs_.clear();
  used_ = 0;
  save_manifest();
}

}  // namespace cudalign::sra
