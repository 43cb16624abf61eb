#include "tlb/tlb.hh"

#include "sim/logging.hh"

namespace barre
{

namespace
{

/** Sets of a checked TLB geometry. */
std::uint32_t
setsOf(const TlbParams &p)
{
    barre_assert(p.entries > 0 && p.ways > 0, "degenerate TLB geometry");
    barre_assert(p.entries % p.ways == 0,
                 "entries (%u) not divisible by ways (%u)", p.entries,
                 p.ways);
    barre_assert(p.asid_partitions == 0 ||
                     (p.asid_partitions <= p.ways &&
                      p.ways % p.asid_partitions == 0),
                 "asid_partitions (%u) must divide ways (%u)",
                 p.asid_partitions, p.ways);
    return p.entries / p.ways;
}

} // namespace

Tlb::Tlb(const TlbParams &p)
    : params_(p), tags_(setsOf(p), p.ways), pids_(p.entries, 0),
      payload_(p.entries)
{}

void
Tlb::occInsert(ProcessId pid)
{
    AsidOcc &occ = asid_occ_[pid];
    ++occ.current;
    if (occ.current > occ.peak)
        occ.peak = occ.current;
}

void
Tlb::occRemove(ProcessId pid)
{
    AsidOcc *occ = asid_occ_.find(pid);
    barre_assert(occ != nullptr && occ->current > 0,
                 "ASID occupancy underflow for process %u", pid);
    --occ->current;
}

std::uint64_t
Tlb::occupancy(ProcessId pid) const
{
    const AsidOcc *occ = asid_occ_.find(pid);
    return occ ? occ->current : 0;
}

std::uint64_t
Tlb::peakOccupancy(ProcessId pid) const
{
    const AsidOcc *occ = asid_occ_.find(pid);
    return occ ? occ->peak : 0;
}

std::optional<TlbEntry>
Tlb::lookup(ProcessId pid, Vpn vpn)
{
    domainCheck("lookup");
    const std::size_t slot = find(pid, vpn);
    if (slot != TagStore<Vpn>::npos) {
        tags_.touch(slot);
        ++hits_;
        return entryAt(slot);
    }
    ++misses_;
    return std::nullopt;
}

std::optional<TlbEntry>
Tlb::peek(ProcessId pid, Vpn vpn) const
{
    // peek mutates nothing, but a cross-domain peek still reads state
    // another domain mutates mid-epoch — equally partition-unsafe.
    domainCheck("peek");
    const std::size_t slot = find(pid, vpn);
    if (slot != TagStore<Vpn>::npos)
        return entryAt(slot);
    return std::nullopt;
}

void
Tlb::insert(const TlbEntry &entry)
{
    domainCheck("insert");
    barre_assert(entry.valid, "inserting an invalid entry");
    barre_assert(entry.vpn != invalid_vpn,
                 "inserting invalid_vpn, the tag of an empty way");
    std::size_t slot = find(entry.pid, entry.vpn);
    if (slot != TagStore<Vpn>::npos) {
        payload_[slot] = Payload{entry.pfn, entry.coal};
        tags_.touch(slot);
        return;
    }

    // Fill-candidate ways: the whole set, or — under per-tenant way
    // partitioning — only this process's static slice of it.
    std::uint32_t w_lo = 0;
    std::uint32_t w_hi = params_.ways;
    if (params_.asid_partitions > 0) {
        const std::uint32_t per =
            params_.ways / params_.asid_partitions;
        w_lo = (entry.pid % params_.asid_partitions) * per;
        w_hi = w_lo + per;
    }

    slot = tags_.victim(tags_.setOf(entry.vpn), w_lo, w_hi);
    if (tags_.valid(slot)) {
        ++evictions_;
        --valid_count_;
        occRemove(pids_[slot]);
        // The victim is still installed while the listener runs.
        if (on_evict_)
            on_evict_(entryAt(slot));
    }
    tags_.fill(slot, entry.vpn);
    pids_[slot] = entry.pid;
    payload_[slot] = Payload{entry.pfn, entry.coal};
    ++valid_count_;
    occInsert(entry.pid);
    if (on_insert_)
        on_insert_(entryAt(slot));
}

bool
Tlb::invalidate(ProcessId pid, Vpn vpn)
{
    domainCheck("invalidate");
    const std::size_t slot = find(pid, vpn);
    if (slot == TagStore<Vpn>::npos)
        return false;
    const TlbEntry gone = entryAt(slot);
    tags_.clear(slot);
    --valid_count_;
    occRemove(gone.pid);
    if (on_evict_)
        on_evict_(gone);
    return true;
}

void
Tlb::shootdown()
{
    domainCheck("shootdown");
    tags_.clearAll();
    valid_count_ = 0;
    asid_occ_.forEach([](ProcessId, AsidOcc &occ) { occ.current = 0; });
}

std::uint64_t
Tlb::invalidateAsid(ProcessId pid)
{
    domainCheck("invalidateAsid");
    std::uint64_t removed = 0;
    for (std::size_t slot = 0; slot < tags_.slots(); ++slot) {
        if (tags_.valid(slot) && pids_[slot] == pid) {
            const TlbEntry gone = entryAt(slot);
            tags_.clear(slot);
            --valid_count_;
            ++removed;
            if (on_evict_)
                on_evict_(gone);
        }
    }
    AsidOcc *occ = asid_occ_.find(pid);
    if (occ) {
        barre_assert(occ->current == removed,
                     "ASID %u occupancy (%llu) disagrees with its live "
                     "entries (%llu)",
                     pid, static_cast<unsigned long long>(occ->current),
                     static_cast<unsigned long long>(removed));
        occ->current = 0;
    } else {
        barre_assert(removed == 0,
                     "untracked ASID %u had live entries", pid);
    }
    return removed;
}

} // namespace barre
