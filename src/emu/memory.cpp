#include "emu/memory.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <utility>

#include "support/error.h"
#include "support/strings.h"

namespace r2r::emu {

namespace {
using support::check;
using support::ErrorKind;

std::uint32_t required_perm(Access access) noexcept {
  switch (access) {
    case Access::kRead: return elf::kRead;
    case Access::kWrite: return elf::kWrite;
    case Access::kExecute: return elf::kExecute;
  }
  return 0;
}

[[noreturn, gnu::cold]] void fail_access(AccessFault fault, std::uint64_t address) {
  throw access_error(fault, address);
}

/// Process-wide snapshot identities; 0 stays "none".
std::atomic<std::uint64_t> next_snapshot_id{1};

/// The one all-zero page every capture shares for zero memory (most of a
/// guest stack) instead of copying it.
const std::shared_ptr<const Memory::Page>& zero_page() {
  static const auto page = std::make_shared<const Memory::Page>(Memory::kPageSize, 0);
  return page;
}
}  // namespace

[[gnu::cold]] support::Error access_error(AccessFault fault, std::uint64_t address) {
  const char* what = "unknown access fault at ";
  switch (fault) {
    case AccessFault::kNone: break;
    case AccessFault::kUnmappedRead: what = "unmapped read at "; break;
    case AccessFault::kReadPermission: what = "permission violation reading "; break;
    case AccessFault::kUnmappedWrite: what = "unmapped write at "; break;
    case AccessFault::kWritePermission: what = "permission violation writing "; break;
    case AccessFault::kUnmappedFetch: what = "unmapped fetch at "; break;
    case AccessFault::kFetchPermission: what = "fetch from non-executable memory at "; break;
    case AccessFault::kUnmappedBlockRead: what = "unmapped block read at "; break;
    case AccessFault::kUnmappedBlockWrite: what = "unmapped block write at "; break;
  }
  return support::Error(ErrorKind::kMemory, what + support::hex_string(address));
}

void Memory::map(std::string name, std::uint64_t base, std::uint64_t size,
                 std::uint32_t perms, std::span<const std::uint8_t> initial) {
  check(size > 0, ErrorKind::kInvalidArgument, "empty mapping");
  if (size > kMaxRegionBytes) {
    support::fail(ErrorKind::kInvalidArgument,
                  "mapping '" + name + "' exceeds the region size cap");
  }
  if (size > std::numeric_limits<std::uint64_t>::max() - base) {
    support::fail(ErrorKind::kInvalidArgument, "mapping '" + name + "' wraps the address space");
  }
  check(initial.size() <= size, ErrorKind::kInvalidArgument, "initial data exceeds size");
  for (const Region& region : regions_) {
    const bool disjoint = base + size <= region.base || region.base + region.bytes.size() <= base;
    check(disjoint, ErrorKind::kInvalidArgument,
          "mapping '" + name + "' overlaps '" + region.name + "'");
  }
  Region region;
  region.name = std::move(name);
  region.base = base;
  region.perms = perms;
  region.bytes.assign(size, 0);
  std::copy(initial.begin(), initial.end(), region.bytes.begin());
  region.dirty.assign(region.page_count(), false);
  region.synced.assign(region.page_count(), nullptr);
  regions_.push_back(std::move(region));
  synced_id_ = 0;
}

void Memory::map_image(const elf::Image& image) {
  for (const auto& segment : image.segments) {
    if (segment.size_in_memory() == 0) continue;
    map(segment.name, segment.vaddr, segment.size_in_memory(), segment.flags,
        segment.data);
  }
}

Memory::Region* Memory::region_for(std::uint64_t address, std::uint64_t size) noexcept {
  for (Region& region : regions_) {
    if (region.contains(address, size)) return &region;
  }
  return nullptr;
}

const Memory::Region* Memory::region_for(std::uint64_t address,
                                         std::uint64_t size) const noexcept {
  for (const Region& region : regions_) {
    if (region.contains(address, size)) return &region;
  }
  return nullptr;
}

void Memory::mark_dirty(Region& region, std::size_t offset, std::size_t length) {
  const std::size_t first = offset / kPageSize;
  const std::size_t last = (offset + length - 1) / kPageSize;
  for (std::size_t page = first; page <= last; ++page) {
    if (region.dirty[page]) continue;
    region.dirty[page] = true;
    dirty_pages_.push_back(DirtyPage{static_cast<std::uint32_t>(&region - regions_.data()),
                                     static_cast<std::uint32_t>(page)});
  }
}

AccessFault Memory::try_read(std::uint64_t address, unsigned bytes, Access access,
                             std::uint64_t& value) const noexcept {
  const Region* region = region_for(address, bytes);
  if (region == nullptr) return AccessFault::kUnmappedRead;
  if ((region->perms & required_perm(access)) == 0) return AccessFault::kReadPermission;
  const std::size_t offset = address - region->base;
  value = 0;
  for (unsigned i = 0; i < bytes; ++i) {
    value |= static_cast<std::uint64_t>(region->bytes[offset + i]) << (8 * i);
  }
  return AccessFault::kNone;
}

AccessFault Memory::try_write(std::uint64_t address, std::uint64_t value, unsigned bytes) {
  Region* region = region_for(address, bytes);
  if (region == nullptr) return AccessFault::kUnmappedWrite;
  if ((region->perms & elf::kWrite) == 0) return AccessFault::kWritePermission;
  const std::size_t offset = address - region->base;
  mark_dirty(*region, offset, bytes);
  for (unsigned i = 0; i < bytes; ++i) {
    region->bytes[offset + i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
  if ((region->perms & elf::kExecute) != 0) ++code_write_epoch_;
  return AccessFault::kNone;
}

AccessFault Memory::try_fetch(std::uint64_t address, std::span<std::uint8_t> out,
                              std::size_t& fetched) const noexcept {
  const Region* region = region_for(address, 1);
  if (region == nullptr) return AccessFault::kUnmappedFetch;
  if ((region->perms & elf::kExecute) == 0) return AccessFault::kFetchPermission;
  const std::size_t offset = address - region->base;
  const std::size_t available = region->bytes.size() - offset;
  fetched = available < out.size() ? available : out.size();
  std::copy_n(region->bytes.begin() + static_cast<std::ptrdiff_t>(offset), fetched,
              out.begin());
  return AccessFault::kNone;
}

std::uint64_t Memory::read(std::uint64_t address, unsigned bytes, Access access) const {
  std::uint64_t value = 0;
  const AccessFault fault = try_read(address, bytes, access, value);
  if (fault != AccessFault::kNone) fail_access(fault, address);
  return value;
}

void Memory::write(std::uint64_t address, std::uint64_t value, unsigned bytes) {
  const AccessFault fault = try_write(address, value, bytes);
  if (fault != AccessFault::kNone) fail_access(fault, address);
}

std::size_t Memory::fetch(std::uint64_t address, std::span<std::uint8_t> out) const {
  std::size_t fetched = 0;
  const AccessFault fault = try_fetch(address, out, fetched);
  if (fault != AccessFault::kNone) fail_access(fault, address);
  return fetched;
}

std::vector<std::uint8_t> Memory::read_block(std::uint64_t address, std::size_t size) const {
  const Region* region = region_for(address, size);
  if (region == nullptr) fail_access(AccessFault::kUnmappedBlockRead, address);
  const std::size_t offset = address - region->base;
  return {region->bytes.begin() + static_cast<std::ptrdiff_t>(offset),
          region->bytes.begin() + static_cast<std::ptrdiff_t>(offset + size)};
}

void Memory::write_block(std::uint64_t address, std::span<const std::uint8_t> data) {
  Region* region = region_for(address, data.size());
  if (region == nullptr) fail_access(AccessFault::kUnmappedBlockWrite, address);
  if (!data.empty()) mark_dirty(*region, address - region->base, data.size());
  std::copy(data.begin(), data.end(),
            region->bytes.begin() + static_cast<std::ptrdiff_t>(address - region->base));
  if (!data.empty() && (region->perms & elf::kExecute) != 0) ++code_write_epoch_;
}

Memory::Snapshot Memory::capture() {
  Snapshot snapshot;
  snapshot.id_ = next_snapshot_id.fetch_add(1, std::memory_order_relaxed);
  snapshot.regions.reserve(regions_.size());
  for (Region& region : regions_) {
    Snapshot::RegionState state;
    state.base = region.base;
    state.size = region.bytes.size();
    const std::size_t pages = region.page_count();
    state.pages.reserve(pages);
    for (std::size_t page = 0; page < pages; ++page) {
      if (!region.dirty[page] && region.synced[page] != nullptr) {
        state.pages.push_back(region.synced[page]);
        continue;
      }
      const std::size_t offset = page * kPageSize;
      const std::size_t length =
          std::min<std::size_t>(kPageSize, region.bytes.size() - offset);
      const auto first = region.bytes.begin() + static_cast<std::ptrdiff_t>(offset);
      const auto last = first + static_cast<std::ptrdiff_t>(length);
      std::shared_ptr<const Page> copy =
          length == kPageSize && std::equal(first, last, zero_page()->begin())
              ? zero_page()
              : std::make_shared<const Page>(first, last);
      region.synced[page] = copy;
      region.dirty[page] = false;
      state.pages.push_back(std::move(copy));
    }
    snapshot.regions.push_back(std::move(state));
  }
  dirty_pages_.clear();
  synced_id_ = snapshot.id_;
  return snapshot;
}

void Memory::rewrite_page(Region& region, std::size_t page,
                          const std::shared_ptr<const Page>& content) {
  std::copy(content->begin(), content->end(),
            region.bytes.begin() + static_cast<std::ptrdiff_t>(page * kPageSize));
  region.synced[page] = content;
  region.dirty[page] = false;
  if ((region.perms & elf::kExecute) != 0) ++code_write_epoch_;
}

void Memory::restore(const Snapshot& snapshot) {
  if (synced_id_ != 0 && snapshot.id_ == synced_id_) {
    // Every clean page already holds this snapshot's content.
    for (const DirtyPage& dirty : dirty_pages_) {
      rewrite_page(regions_[dirty.region], dirty.page,
                   snapshot.regions[dirty.region].pages[dirty.page]);
    }
    dirty_pages_.clear();
    return;
  }
  // Full path: check the whole layout first, so a mismatch changes nothing.
  check(snapshot.regions.size() == regions_.size(), ErrorKind::kInvalidArgument,
        "snapshot region count does not match this address space");
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    const Snapshot::RegionState& state = snapshot.regions[i];
    if (state.base != regions_[i].base || state.size != regions_[i].bytes.size()) {
      support::fail(ErrorKind::kInvalidArgument,
                    "snapshot region layout does not match '" + regions_[i].name + "'");
    }
  }
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    Region& region = regions_[i];
    const Snapshot::RegionState& state = snapshot.regions[i];
    for (std::size_t page = 0; page < state.pages.size(); ++page) {
      if (!region.dirty[page] && region.synced[page] == state.pages[page]) continue;
      rewrite_page(region, page, state.pages[page]);
    }
  }
  dirty_pages_.clear();
  synced_id_ = snapshot.id_;
}

bool Memory::equals(const Snapshot& snapshot) const noexcept {
  if (snapshot.regions.size() != regions_.size()) return false;
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    const Region& region = regions_[i];
    const Snapshot::RegionState& state = snapshot.regions[i];
    if (state.base != region.base || state.size != region.bytes.size()) return false;
    for (std::size_t page = 0; page < state.pages.size(); ++page) {
      if (!region.dirty[page] && region.synced[page] == state.pages[page]) continue;
      const Page& content = *state.pages[page];
      if (!std::equal(content.begin(), content.end(),
                      region.bytes.begin() +
                          static_cast<std::ptrdiff_t>(page * kPageSize))) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace r2r::emu
