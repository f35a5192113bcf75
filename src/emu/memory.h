// r2r::emu — guest physical/virtual memory (flat region model).
//
// Regions never overlap and accesses are permission-checked. Each guest
// access has one non-throwing core (try_read/try_write/try_fetch) that
// reports a failure as an AccessFault and formats nothing; the machine
// records that as its run-end status and turns it into a crash outcome (the
// fault-campaign "crash" classification). read/write/fetch are thin
// wrappers over the same cores that throw Error{kMemory} for host callers.
// The message text ("unmapped read at 0x1", ...) is built only after an
// access failed, by access_error().
//
// The memory additionally supports page-granular copy-on-write snapshots
// (the substrate of the sim:: fault-simulation engine): capture() copies
// only pages written since the previous capture/restore and shares the
// rest (all-zero pages share one process-wide page), restore() rewrites
// only pages that differ from the target snapshot, and equals() compares
// mostly by page identity. Writes keep a per-page dirty bit plus a list of
// the pages dirtied since the last sync point, so restoring the snapshot
// the memory is synced to costs O(pages dirtied), not O(pages mapped).
//
// Code writes are one counter, the code-write epoch: a store into an
// executable region and a restore() that rewrites an executable page each
// bump it. emu::BlockCache polls it and empties itself when it moved.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "elf/image.h"
#include "support/error.h"

namespace r2r::emu {

enum class Access : std::uint8_t { kRead, kWrite, kExecute };

/// Why a guest access failed; kNone when it succeeded.
enum class AccessFault : std::uint8_t {
  kNone,
  kUnmappedRead,
  kReadPermission,
  kUnmappedWrite,
  kWritePermission,
  kUnmappedFetch,
  kFetchPermission,
  kUnmappedBlockRead,
  kUnmappedBlockWrite,
};

/// The Error{kMemory} the throwing accessors raise for a failed access at
/// `address` ("memory: unmapped read at 0x1", ...). Cold: call it only
/// after an access failed.
[[nodiscard]] support::Error access_error(AccessFault fault, std::uint64_t address);

class Memory {
 public:
  static constexpr std::uint64_t kPageSize = 4096;

  /// Immutable page content shared between snapshots of the same lineage.
  /// The last page of a region may be shorter than kPageSize.
  using Page = std::vector<std::uint8_t>;

  /// Page-granular copy-on-write snapshot of the full address space.
  /// Snapshots are value types: cheap to copy (shared pages), safe to
  /// share across threads (pages are immutable once captured). Each
  /// capture() gets a process-wide unique identity that copies share;
  /// restore() uses it to recognise the snapshot the memory is synced to,
  /// so the regions of a captured snapshot must not be edited.
  struct Snapshot {
    struct RegionState {
      std::uint64_t base = 0;
      std::uint64_t size = 0;
      std::vector<std::shared_ptr<const Page>> pages;
    };
    std::vector<RegionState> regions;

    /// 0 for a snapshot capture() did not produce.
    [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

   private:
    friend class Memory;
    std::uint64_t id_ = 0;
  };

  /// Largest region map() accepts (256 MiB). Guests are small (the stack
  /// is 1 MiB); the cap turns a corrupt segment size into an error instead
  /// of a host allocation of its size.
  static constexpr std::uint64_t kMaxRegionBytes = std::uint64_t{1} << 28;

  /// Maps a zero-initialized region; `initial` (if any) seeds the prefix.
  /// Throws Error{kInvalidArgument} for an empty region, one larger than
  /// kMaxRegionBytes, one whose end wraps past 2^64, and one that overlaps
  /// a mapped region. The next restore() takes the full path, which checks
  /// the layout.
  void map(std::string name, std::uint64_t base, std::uint64_t size, std::uint32_t perms,
           std::span<const std::uint8_t> initial = {});

  /// Maps every segment of an ELF image.
  void map_image(const elf::Image& image);

  // --- guest accesses ---------------------------------------------------------
  // The try_ cores return kNone on success. On failure they change no
  // memory and leave `value`/`out` unwritten.

  AccessFault try_read(std::uint64_t address, unsigned bytes, Access access,
                       std::uint64_t& value) const noexcept;
  AccessFault try_write(std::uint64_t address, std::uint64_t value, unsigned bytes);
  /// Copies up to `out.size()` bytes starting at `address` with execute
  /// permission into `out`; `fetched` receives the count (short at region
  /// end).
  AccessFault try_fetch(std::uint64_t address, std::span<std::uint8_t> out,
                        std::size_t& fetched) const noexcept;

  /// Throwing wrappers over the cores: Error{kMemory} on failure.
  std::uint64_t read(std::uint64_t address, unsigned bytes,
                     Access access = Access::kRead) const;
  void write(std::uint64_t address, std::uint64_t value, unsigned bytes);
  /// Returns bytes copied (may be short at region end).
  std::size_t fetch(std::uint64_t address, std::span<std::uint8_t> out) const;

  /// Bulk read without permission checks (host-side inspection).
  std::vector<std::uint8_t> read_block(std::uint64_t address, std::size_t size) const;
  /// Bulk write without permission checks (host-side setup).
  void write_block(std::uint64_t address, std::span<const std::uint8_t> data);

  // --- snapshots -------------------------------------------------------------

  /// Captures the current contents and syncs the memory to the result.
  /// Pages untouched since the last capture/restore are shared with that
  /// sync point instead of copied, and an all-zero page shares one
  /// immutable zero page.
  Snapshot capture();

  /// Rewrites the address space to match `snapshot` and syncs to it.
  /// Restoring the snapshot the memory is already synced to rewrites only
  /// the pages dirtied since (the sweep's common case: every fault from
  /// one checkpoint). Any other snapshot takes the full path: it checks the
  /// region layout, throwing Error{kInvalidArgument} when it differs, and
  /// rewrites each page that is dirty or synced to different content.
  void restore(const Snapshot& snapshot);

  /// True when guest-visible memory is byte-identical to `snapshot`.
  /// Clean pages synced to the same page object compare by identity;
  /// only dirty or divergent pages are memcmp'd.
  [[nodiscard]] bool equals(const Snapshot& snapshot) const noexcept;

  /// True when guest-visible memory is byte-identical to `other`'s. When
  /// both are synced to the same snapshot (two machines restored from one
  /// checkpoint), only the pages dirty in either are compared; otherwise
  /// every region is.
  [[nodiscard]] bool equals(const Memory& other) const noexcept;

  /// The code-write epoch: bumped by every store that lands in an
  /// executable region (a guest store or a host-side write_block) and by
  /// every restore() that rewrites an executable page. Never resets.
  [[nodiscard]] std::uint64_t code_write_epoch() const noexcept { return code_write_epoch_; }

 private:
  struct Region {
    std::string name;
    std::uint64_t base = 0;
    std::uint32_t perms = 0;
    std::vector<std::uint8_t> bytes;
    /// Per-page: written since the last capture()/restore() sync point.
    std::vector<bool> dirty;
    /// Per-page: the page content this page matched at the last sync point
    /// (null before the first snapshot operation).
    std::vector<std::shared_ptr<const Page>> synced;

    [[nodiscard]] bool contains(std::uint64_t address, std::uint64_t size) const noexcept {
      return address >= base && address + size <= base + bytes.size() &&
             address + size >= address;
    }
    [[nodiscard]] std::size_t page_count() const noexcept {
      return (bytes.size() + kPageSize - 1) / kPageSize;
    }
  };

  /// A page written since the last sync point: (region index, page index).
  struct DirtyPage {
    std::uint32_t region = 0;
    std::uint32_t page = 0;
  };

  Region* region_for(std::uint64_t address, std::uint64_t size) noexcept;
  const Region* region_for(std::uint64_t address, std::uint64_t size) const noexcept;
  void mark_dirty(Region& region, std::size_t offset, std::size_t length);
  /// Copies `page` of `region` back from `content` and syncs it there.
  void rewrite_page(Region& region, std::size_t page,
                    const std::shared_ptr<const Page>& content);

  std::vector<Region> regions_;
  /// Every page whose dirty bit is set, each listed once.
  std::vector<DirtyPage> dirty_pages_;
  /// Identity of the snapshot every clean page is synced to; 0 when there
  /// is none (no sync yet, or a map() since).
  std::uint64_t synced_id_ = 0;
  std::uint64_t code_write_epoch_ = 0;
};

}  // namespace r2r::emu
