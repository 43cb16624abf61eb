#include "core/pec.hh"

#include <algorithm>

#include "mem/page_table.hh"
#include "sim/logging.hh"

namespace barre
{

void
PecBuffer::insert(const PecEntry &e)
{
    domainCheck("insert");
    barre_assert(e.valid, "inserting invalid PEC entry");
    barre_assert(e.num_gpus >= 1 && e.num_gpus <= PecEntry::max_gpus,
                 "bad num_gpus");
    // Replace a stale descriptor of the same buffer in place.
    for (auto &slot : slots_) {
        if (slot.valid && slot.pid == e.pid &&
            slot.start_vpn == e.start_vpn) {
            slot = e;
            return;
        }
    }
    // Free slot?
    for (auto &slot : slots_) {
        if (!slot.valid) {
            slot = e;
            return;
        }
    }
    // Full: overwrite the entry describing the smallest buffer (§IV-E),
    // but never with a smaller newcomer.
    auto victim = std::min_element(
        slots_.begin(), slots_.end(),
        [](const PecEntry &a, const PecEntry &b) {
            return a.pages() < b.pages();
        });
    if (victim->pages() <= e.pages())
        *victim = e;
}

const PecEntry *
PecBuffer::find(ProcessId pid, Vpn vpn) const
{
    // Read path, but the oracle sharing mode reads peer buffers from
    // the requester's context mid-epoch — worth surfacing.
    domainCheck("find");
    for (const auto &slot : slots_)
        if (slot.contains(pid, vpn))
            return &slot;
    return nullptr;
}

void
PecBuffer::clear()
{
    for (auto &slot : slots_)
        slot.valid = false;
}

std::uint32_t
PecBuffer::eraseProcess(ProcessId pid)
{
    domainCheck("eraseProcess");
    std::uint32_t released = 0;
    for (auto &slot : slots_) {
        if (slot.valid && slot.pid == pid) {
            slot = PecEntry{};
            ++released;
        }
    }
    return released;
}

std::uint32_t
PecBuffer::occupancy() const
{
    std::uint32_t n = 0;
    for (const auto &slot : slots_)
        if (slot.valid)
            ++n;
    return n;
}

namespace pec
{

std::vector<Vpn>
groupMembers(const PecEntry &entry, Vpn vpn, const CoalInfo &coal)
{
    std::vector<Vpn> members;
    if (!coal.coalesced())
        return members;

    const auto gran = static_cast<std::int64_t>(entry.gran);
    if (coal.merged) {
        // First VPN of the merged group (paper §V-B equation).
        std::int64_t first = static_cast<std::int64_t>(vpn) -
                             coal.intraOrder - gran * coal.interOrder;
        for (std::uint32_t k = 0; k < entry.num_gpus; ++k) {
            if (!(coal.bitmap & (std::uint32_t{1} << k)))
                continue;
            for (std::uint32_t i = 0; i < coal.numMerged; ++i) {
                auto v = static_cast<Vpn>(first + gran * k + i);
                if (v >= entry.start_vpn && v <= entry.end_vpn)
                    members.push_back(v);
            }
        }
    } else {
        for (std::uint32_t k = 0; k < entry.num_gpus; ++k) {
            if (!(coal.bitmap & (std::uint32_t{1} << k)))
                continue;
            std::int64_t v = static_cast<std::int64_t>(vpn) +
                             gran * (static_cast<std::int64_t>(k) -
                                     coal.interOrder);
            if (v >= static_cast<std::int64_t>(entry.start_vpn) &&
                v <= static_cast<std::int64_t>(entry.end_vpn)) {
                members.push_back(static_cast<Vpn>(v));
            }
        }
    }
    return members;
}

void
interMembers(const PecEntry &entry, Vpn vpn, const CoalInfo &coal,
             MemberVpns &out)
{
    out.count = 0;
    if (!coal.coalesced())
        return;
    barre_assert(entry.num_gpus <= PecEntry::max_gpus,
                 "PEC entry spans %u chiplets (max %u)", entry.num_gpus,
                 PecEntry::max_gpus);
    const auto gran = static_cast<std::int64_t>(entry.gran);
    for (std::uint32_t k = 0; k < entry.num_gpus; ++k) {
        if (!(coal.bitmap & (std::uint32_t{1} << k)))
            continue;
        std::int64_t v = static_cast<std::int64_t>(vpn) +
                         gran * (static_cast<std::int64_t>(k) -
                                 coal.interOrder);
        if (v >= static_cast<std::int64_t>(entry.start_vpn) &&
            v <= static_cast<std::int64_t>(entry.end_vpn)) {
            out.vpn[out.count++] = static_cast<Vpn>(v);
        }
    }
}

std::vector<Vpn>
interMembers(const PecEntry &entry, Vpn vpn, const CoalInfo &coal)
{
    MemberVpns members;
    interMembers(entry, vpn, coal, members);
    return {members.begin(), members.end()};
}

std::optional<PecCalc>
calcPending(const PecEntry &entry, Vpn t_vpn, Pfn t_pfn,
            const CoalInfo &t_coal, Vpn pending, const MemoryMap &map)
{
    if (!t_coal.coalesced())
        return std::nullopt;
    if (!entry.contains(entry.pid, pending) || pending == t_vpn)
        return std::nullopt;

    const auto gran = static_cast<std::int64_t>(entry.gran);

    if (t_coal.merged) {
        std::int64_t first = static_cast<std::int64_t>(t_vpn) -
                             t_coal.intraOrder - gran * t_coal.interOrder;
        std::int64_t delta = static_cast<std::int64_t>(pending) - first;
        if (delta < 0)
            return std::nullopt;
        std::int64_t k = delta / gran;
        std::int64_t i = delta % gran;
        if (k >= entry.num_gpus || i >= t_coal.numMerged)
            return std::nullopt;
        if (!(t_coal.bitmap & (std::uint32_t{1} << k)))
            return std::nullopt;

        // All group members share the chiplet-local base frame; member
        // (k, i) sits i frames into the contiguous run on chiplet
        // gpu_map[k] (paper §V-B PFN_pending equation).
        LocalPfn local_base = map.localOf(t_pfn) - t_coal.intraOrder;
        ChipletId chiplet = entry.gpu_map[static_cast<std::size_t>(k)];
        PecCalc out;
        out.pfn = map.globalPfn(chiplet, local_base + i);
        out.coal = t_coal;
        out.coal.interOrder = static_cast<std::uint8_t>(k);
        out.coal.intraOrder = static_cast<std::uint8_t>(i);
        return out;
    }

    // Plain group: members are exactly gran apart (§IV-F, Example 4).
    std::int64_t dq = static_cast<std::int64_t>(pending) -
                      static_cast<std::int64_t>(t_vpn);
    if (dq % gran != 0)
        return std::nullopt;
    std::int64_t k = t_coal.interOrder + dq / gran;
    if (k < 0 || k >= entry.num_gpus)
        return std::nullopt;
    if (!(t_coal.bitmap & (std::uint32_t{1} << k)))
        return std::nullopt;

    ChipletId chiplet = entry.gpu_map[static_cast<std::size_t>(k)];
    PecCalc out;
    out.pfn = map.globalPfn(chiplet, map.localOf(t_pfn));
    out.coal = t_coal;
    out.coal.interOrder = static_cast<std::uint8_t>(k);
    return out;
}

bool
sameGroup(const PecEntry &entry, Vpn walking, Vpn pending,
          std::uint32_t num_merged)
{
    if (!entry.contains(entry.pid, walking) ||
        !entry.contains(entry.pid, pending)) {
        return false;
    }
    // Same round and (modulo merging width) same in-stripe offset.
    if (entry.roundOf(walking) != entry.roundOf(pending))
        return false;
    std::uint32_t ow = entry.offsetOf(walking);
    std::uint32_t op = entry.offsetOf(pending);
    std::uint32_t width = std::max<std::uint32_t>(num_merged, 1);
    return ow / width == op / width;
}

void
auditGroup(const PecEntry &entry, const PageTable &pt, Vpn vpn,
           const MemoryMap &map)
{
    auto pte = pt.walk(vpn);
    if (!pte)
        return;
    const CoalInfo ci = pte->coalInfo();
    if (!ci.coalesced())
        return;

    barre_assert(entry.contains(entry.pid, vpn),
                 "coalesced VPN %llx outside its PEC entry's range",
                 (unsigned long long)vpn);
    barre_assert(ci.bitmap & (std::uint32_t{1} << ci.interOrder),
                 "VPN %llx: own order position %u missing from its "
                 "coalescing bitmap %x",
                 (unsigned long long)vpn, ci.interOrder, ci.bitmap);
    if (ci.merged) {
        barre_assert(ci.intraOrder < ci.numMerged,
                     "VPN %llx: intra order %u outside merged run of %u",
                     (unsigned long long)vpn, ci.intraOrder,
                     ci.numMerged);
    }

    for (Vpn member : groupMembers(entry, vpn, ci)) {
        if (member == vpn)
            continue;
        auto mpte = pt.walk(member);
        barre_assert(mpte.has_value(),
                     "coalescing-group member %llx of %llx is unmapped",
                     (unsigned long long)member, (unsigned long long)vpn);
        auto calc = calcPending(entry, vpn, pte->pfn(), ci, member, map);
        barre_assert(calc.has_value(),
                     "group member %llx of %llx is not PEC-calculable",
                     (unsigned long long)member, (unsigned long long)vpn);
        barre_assert(calc->pfn == mpte->pfn(),
                     "member %llx: PEC-calculated PFN %llx != page-table "
                     "PFN %llx",
                     (unsigned long long)member,
                     (unsigned long long)calc->pfn,
                     (unsigned long long)mpte->pfn());
        barre_assert(map.chipletOf(mpte->pfn()) == entry.chipletOf(member),
                     "member %llx mapped on chiplet %u, layout says %u",
                     (unsigned long long)member,
                     map.chipletOf(mpte->pfn()), entry.chipletOf(member));
        const CoalInfo mci = mpte->coalInfo();
        barre_assert(mci.bitmap == ci.bitmap && mci.merged == ci.merged &&
                     mci.numMerged == ci.numMerged,
                     "member %llx: group metadata diverges from %llx",
                     (unsigned long long)member, (unsigned long long)vpn);
        barre_assert(mci.interOrder == calc->coal.interOrder,
                     "member %llx: inter-GPU order %u, expected %u",
                     (unsigned long long)member, mci.interOrder,
                     calc->coal.interOrder);
        if (ci.merged) {
            barre_assert(mci.intraOrder == calc->coal.intraOrder,
                         "member %llx: intra order %u, expected %u",
                         (unsigned long long)member, mci.intraOrder,
                         calc->coal.intraOrder);
        }
    }
}

} // namespace pec

} // namespace barre
