/**
 * @file
 * Page Entry Coalescing (PEC) machinery — the heart of Barre Chord.
 *
 * A *coalescing group* is a set of pages, one (or, merged, a few
 * consecutive) per participating chiplet, that the driver mapped onto the
 * same local PFN(s) in every chiplet's memory. Once any member is
 * translated, every other member's PFN is *calculated* instead of walked
 * (paper §IV).
 *
 * The PEC buffer holds one entry per allocated data buffer: VPN range,
 * interleaving granularity and the VPN-order -> chiplet map (GPU_map).
 * PEC logic combines a translated PTE's coalescing bits with the matching
 * PEC entry to recover the group and compute pending members' PFNs
 * (paper §IV-E/F, Examples 1-4; merged groups per §V-B).
 *
 * Data layout convention (generalizes LASP/CODA/chunking/round-robin):
 * a buffer of P pages is cut into stripes of `gran` consecutive VPNs;
 * stripe s goes to chiplet gpu_map[s mod num_gpus]; within a chiplet,
 * stripes stack in order. Pages with equal (stripe-round, in-stripe
 * offset) form one coalescing group; members are exactly `gran` VPNs
 * apart, which is what makes calculation possible.
 *
 * CoalInfo.bitmap is *position*-indexed: bit k set means the group member
 * at inter-GPU order k (chiplet gpu_map[k]) participates. Excluding a
 * migrated page clears its position bit without renumbering the others.
 */

#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "mem/memory_map.hh"
#include "mem/pte.hh"
#include "mem/types.hh"
#include "sim/domain_guard.hh"
#include "sim/stats.hh"

namespace barre
{

class PageTable;

/** One PEC-buffer entry: the layout descriptor of one data buffer. */
struct PecEntry
{
    static constexpr std::uint32_t max_gpus = 16;

    ProcessId pid = 0;
    Vpn start_vpn = invalid_vpn;
    Vpn end_vpn = invalid_vpn;          ///< inclusive
    std::uint32_t gran = 1;             ///< consecutive VPNs per stripe
    std::uint32_t num_gpus = 1;         ///< stripes per round
    std::array<std::uint8_t, max_gpus> gpu_map{}; ///< order -> chiplet
    bool valid = false;

    std::uint64_t
    pages() const
    {
        return end_vpn - start_vpn + 1;
    }

    bool
    contains(ProcessId p, Vpn vpn) const
    {
        return valid && p == pid && vpn >= start_vpn && vpn <= end_vpn;
    }

    /** Page index within the buffer. */
    std::uint64_t posOf(Vpn vpn) const { return vpn - start_vpn; }

    /** Which stripe round the page lies in. */
    std::uint64_t
    roundOf(Vpn vpn) const
    {
        return posOf(vpn) / (std::uint64_t{gran} * num_gpus);
    }

    /** inter-GPU coalescing order (position across chiplets). */
    std::uint32_t
    interOrderOf(Vpn vpn) const
    {
        return static_cast<std::uint32_t>((posOf(vpn) / gran) % num_gpus);
    }

    /** Offset within the stripe (selects the group within a round). */
    std::uint32_t
    offsetOf(Vpn vpn) const
    {
        return static_cast<std::uint32_t>(posOf(vpn) % gran);
    }

    /** Owning chiplet per the layout. */
    ChipletId
    chipletOf(Vpn vpn) const
    {
        return gpu_map[interOrderOf(vpn)];
    }

    /**
     * Index of this page within its chiplet's local allocation for the
     * buffer (round-major, then in-stripe offset).
     */
    std::uint64_t
    localPageIndexOf(Vpn vpn) const
    {
        return roundOf(vpn) * gran + offsetOf(vpn);
    }

    /** Paper-accounted size of one entry (118 bits, Table II). */
    static constexpr std::uint32_t storage_bits = 118;
};

/**
 * The PEC buffer: a small fully-associative table of PecEntry, one per
 * live data buffer. Table II: 5 entries. When full, the entry describing
 * the smallest buffer is overwritten (paper §IV-E).
 */
// domain-owner:chiplet — per-chiplet instances in F-Barre; the GMMU
// and IOMMU copies are bound kAnyDomain (driver-filled at setup, only
// read during the run).
class PecBuffer : public DomainOwned
{
  public:
    explicit PecBuffer(std::uint32_t entries = 5) : slots_(entries) {}

    /** Install @p e, evicting the smallest-buffer entry when full. */
    void insert(const PecEntry &e);

    /** Find the entry covering (pid, vpn); nullptr if absent. */
    const PecEntry *find(ProcessId pid, Vpn vpn) const;

    void clear();

    /**
     * Drop every entry belonging to @p pid (process exit). @return the
     * number of slots released.
     */
    std::uint32_t eraseProcess(ProcessId pid);

    std::uint32_t capacity() const
    {
        return static_cast<std::uint32_t>(slots_.size());
    }
    std::uint32_t occupancy() const;

    std::uint64_t
    storageBits() const
    {
        return std::uint64_t{capacity()} * PecEntry::storage_bits;
    }

  private:
    std::vector<PecEntry> slots_;
};

/** Result of a coalesced PFN calculation for a pending VPN. */
struct PecCalc
{
    Pfn pfn = invalid_pfn;
    CoalInfo coal{};
};

/**
 * Stateless PEC-logic arithmetic (one instance per PTW / per chiplet in
 * hardware; here shared free functions plus a stats wrapper).
 */
namespace pec
{

/**
 * All member VPNs of the coalescing group containing @p vpn (including
 * @p vpn itself), given its decoded @p coal bits and the buffer layout.
 * Used for F-Barre filter updates (§V-A2) and group bookkeeping.
 */
std::vector<Vpn> groupMembers(const PecEntry &entry, Vpn vpn,
                              const CoalInfo &coal);

/**
 * The cross-chiplet members of @p vpn's group at @p vpn's own intra
 * offset (popcount(coal_bitmap) VPNs). This is the set the F-Barre
 * filter updates carry (§V-A2: "the number of coalescing VPNs is the
 * number of bits set in coal_bitmap") — for merged groups, the other
 * intra offsets are *not* broadcast; they remain reachable through the
 * local candidate search and the IOMMU's PEC scan.
 */
std::vector<Vpn> interMembers(const PecEntry &entry, Vpn vpn,
                              const CoalInfo &coal);

/**
 * At most PecEntry::max_gpus VPNs held inline: one group's cross-chiplet
 * members, small enough for a filter-update message to carry by value.
 */
struct MemberVpns
{
    std::array<Vpn, PecEntry::max_gpus> vpn{};
    std::uint32_t count = 0;

    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }
    const Vpn *begin() const { return vpn.data(); }
    const Vpn *end() const { return vpn.data() + count; }
};

/** interMembers() into @p out, without allocating (the hot-path form). */
void interMembers(const PecEntry &entry, Vpn vpn, const CoalInfo &coal,
                  MemberVpns &out);

/**
 * Try to calculate @p pending's PFN from a translated member.
 *
 * @param entry  PEC-buffer entry for the data buffer
 * @param t_vpn  translated VPN
 * @param t_pfn  its global PFN (from the walked PTE)
 * @param t_coal its coalescing bits (from the walked PTE)
 * @param pending the pending VPN to cover
 * @param map    global PFN map (chiplet base PFNs)
 * @return PFN + derived coalescing bits, or nullopt if @p pending is not
 *         in the same coalescing group.
 */
std::optional<PecCalc> calcPending(const PecEntry &entry, Vpn t_vpn,
                                   Pfn t_pfn, const CoalInfo &t_coal,
                                   Vpn pending, const MemoryMap &map);

/**
 * Quick coalescibility test used by the coalescing-aware PTW scheduler
 * (§V-C): would @p pending be calculable once @p walking's walk returns?
 * Conservative — layout-only (the walking PTE is not yet available), so
 * it assumes full group participation.
 */
bool sameGroup(const PecEntry &entry, Vpn walking, Vpn pending,
               std::uint32_t num_merged);

/**
 * Deep audit (sim/invariant.hh): starting from @p vpn's installed PTE,
 * verify its whole coalescing group is consistent with the page table —
 * every member under the group bitmap is mapped, resolves to exactly
 * the PEC-calculated PFN on the layout's chiplet, and carries matching
 * group metadata with its own 2-D (inter, intra) coordinates. A page
 * without a coalesced PTE audits trivially. Panics (throws) on
 * violation. O(group size) walks.
 */
void auditGroup(const PecEntry &entry, const PageTable &pt, Vpn vpn,
                const MemoryMap &map);

} // namespace pec

} // namespace barre

