#include "gpu/chiplet.hh"

#include "sim/logging.hh"

namespace barre
{

Chiplet::Chiplet(EventQueue &eq, std::string name, ChipletId id,
                 const ChipletParams &params, const MemoryMap &map,
                 Interconnect &noc)
    : SimObject(eq, std::move(name)), id_(id), params_(params), map_(map),
      noc_(noc)
{
    for (std::uint32_t cu = 0; cu < params_.cus; ++cu) {
        l1_tlbs_.push_back(std::make_unique<Tlb>(params_.l1_tlb));
        l1_caches_.push_back(std::make_unique<Cache>(params_.l1_cache));
    }
    owned_l2_tlb_ = std::make_unique<Tlb>(params_.l2_tlb);
    l2_tlb_ = owned_l2_tlb_.get();
    owned_l2_mshr_ = std::make_unique<Mshr<TlbEntry>>(params_.l2_tlb.mshrs);
    l2_mshr_ = owned_l2_mshr_.get();
    l2_cache_ = std::make_unique<Cache>(params_.l2_cache);
    dram_ = std::make_unique<Dram>(eq, this->name() + ".dram",
                                   params_.dram);

    // Mirror this chiplet's L2 TLB evictions into the service (F-Barre
    // filter deletes, Least spill, ...).
    owned_l2_tlb_->setEvictListener([this](const TlbEntry &e) {
        if (service_)
            service_->onL2Evict(id_, e);
    });
}

void
Chiplet::connectSharedTlb(SharedTlbService *svc)
{
    shared_svc_ = svc;
    // Keep l2Tlb() pointing at the shared structure for test peeks and
    // shootdowns; the access pipeline itself goes through the service's
    // request/response links, never through this pointer.
    l2_tlb_ = &svc->tlb();
    l2_mshr_ = nullptr;
    owned_l2_tlb_.reset();
    owned_l2_mshr_.reset();
}

void
Chiplet::setPeers(std::vector<Chiplet *> peers)
{
    peers_ = std::move(peers);
}

void
Chiplet::access(CuId cu, ProcessId pid, Addr vaddr,
                EventQueue::Callback &&done)
{
    Vpn vpn = vpnOf(vaddr, params_.page_size);
    const Tick t0 = curTick();
    after(params_.l1_tlb.lookup_latency,
          [this, cu, pid, vaddr, vpn, t0,
           done = std::move(done)]() mutable {
              if (auto te = l1_tlbs_[cu]->lookup(pid, vpn)) {
                  dataAccess(cu, pid, vaddr, *te, t0, std::move(done));
                  return;
              }
              // Valkyrie: probe sibling L1 TLBs inside the chiplet.
              if (params_.sibling_l1_probe) {
                  for (std::uint32_t s = 0; s < params_.cus; ++s) {
                      if (s == cu)
                          continue;
                      if (auto te = l1_tlbs_[s]->peek(pid, vpn)) {
                          ++sibling_hits_;
                          l1_tlbs_[cu]->insert(*te);
                          after(params_.sibling_probe_latency,
                                [this, cu, pid, vaddr, te = *te, t0,
                                 done = std::move(done)]() mutable {
                                    dataAccess(cu, pid, vaddr, te, t0,
                                               std::move(done));
                                });
                          return;
                      }
                  }
              }
              ++l2_demand_accesses_;
              translateAtL2(cu, pid, vaddr, vpn, t0, std::move(done));
          });
}

void
Chiplet::translateAtL2(CuId cu, ProcessId pid, Addr vaddr, Vpn vpn,
                       Tick t0, EventQueue::Callback &&done)
{
    if (shared_svc_) {
        // The package-shared block serves the whole L2 stage (lookup,
        // MSHRs, parking, fill) on the host side; the continuation
        // fires back here with the entry once its response arrives.
        shared_svc_->lookupFrom(
            id_, pid, vpn,
            [this, cu, pid, vaddr, t0,
             done = std::move(done)](const TlbEntry &te) mutable {
                l1_tlbs_[cu]->insert(te);
                dataAccess(cu, pid, vaddr, te, t0, std::move(done));
            });
        return;
    }
    after(l2_tlb_->params().lookup_latency,
          [this, cu, pid, vaddr, vpn, t0,
           done = std::move(done)]() mutable {
              if (auto te = l2_tlb_->lookup(pid, vpn)) {
                  l1_tlbs_[cu]->insert(*te);
                  dataAccess(cu, pid, vaddr, *te, t0, std::move(done));
                  return;
              }
              auto key = Mshr<TlbEntry>::keyOf(pid, vpn);

              // Back-pressure: a full MSHR file (with no in-flight entry
              // to merge onto) parks the request; it re-runs the L2
              // stage when an MSHR frees up (Fig 4's bottleneck). The
              // demand miss is counted when the request finally
              // proceeds, so parked retries are not double counted.
              if (!l2_mshr_->inFlight(key) && l2_mshr_->full()) {
                  ++mshr_retries_;
                  parked_.push_back(Parked{cu, pid, vaddr, vpn, t0,
                                           std::move(done)});
                  return;
              }
              ++l2_demand_misses_;

              auto outcome = l2_mshr_->allocate(
                  key, [this, cu, pid, vaddr, t0,
                        done = std::move(done)](const TlbEntry &te) mutable {
                      l1_tlbs_[cu]->insert(te);
                      dataAccess(cu, pid, vaddr, te, t0, std::move(done));
                  });
              if (outcome != Mshr<TlbEntry>::Outcome::primary)
                  return; // merged onto the in-flight miss

              barre_assert(service_ != nullptr,
                           "no translation service wired");
              service_->translate(
                  pid, vpn, id_,
                  [this, pid, vpn, key](const AtsResponse &resp) {
                      if (validator_)
                          validator_(pid, vpn, resp.pfn, resp.calculated);
                      service_->onResponse(id_, resp);
                      TlbEntry te;
                      te.pid = pid;
                      te.vpn = vpn;
                      te.pfn = resp.pfn;
                      te.coal = resp.coal;
                      te.valid = true;
                      l2_tlb_->insert(te);
                      service_->onL2Insert(id_, te);
                      l2_mshr_->complete(key, te);
                      unparkWaiters();
                  });
          });
}

void
Chiplet::dataAccess(CuId cu, ProcessId pid, Addr vaddr, const TlbEntry &te,
                    Tick t0, EventQueue::Callback &&done)
{
    if (lat_probe_)
        lat_probe_(pid, curTick() - t0);
    Addr offset = pageOffset(vaddr, params_.page_size);
    Addr paddr = paddrOf(te.pfn, offset, params_.page_size);
    ChipletId owner = map_.chipletOf(te.pfn);

    Cycles stall = 0;
    if (migrator_) {
        stall = migrator_->recordAccess(curTick(), pid, te.vpn, id_,
                                        owner);
    }

    if (l1_caches_[cu]->access(paddr)) {
        after(stall + params_.l1_cache.hit_latency, std::move(done));
        return;
    }

    if (owner == id_) {
        ++local_data_;
        after(stall + params_.l2_cache.hit_latency,
              [this, paddr, done = std::move(done)]() mutable {
                  if (l2_cache_->access(paddr)) {
                      done();
                      return;
                  }
                  dram_->access(std::move(done));
              });
        return;
    }

    ++remote_data_;
    barre_assert(owner < peers_.size() && peers_[owner] != nullptr,
                 "peer %u not wired", owner);
    Chiplet *peer = peers_[owner];
    after(stall, [this, peer, paddr, done = std::move(done)]() mutable {
        noc_.send(id_, peer->id(), params_.remote_req_bytes,
                  [this, peer, paddr, done = std::move(done)]() mutable {
                      peer->serveRemoteData(
                          paddr,
                          [this, peer, done = std::move(done)]() mutable {
                              noc_.send(peer->id(), id_,
                                        params_.remote_resp_bytes,
                                        std::move(done));
                          });
                  });
    });
}

void
Chiplet::unparkWaiters()
{
    // An MSHR completion freed a slot; release parked requests. They
    // re-run the L2 stage (and may hit now, merge, or re-park).
    while (!parked_.empty() && !l2_mshr_->full()) {
        Parked p = std::move(parked_.front());
        parked_.pop_front();
        after(params_.retry_interval,
              [this, p = std::move(p)]() mutable {
                  translateAtL2(p.cu, p.pid, p.vaddr, p.vpn, p.t0,
                                std::move(p.done));
              });
    }
}

void
Chiplet::serveRemoteData(Addr paddr, EventQueue::Callback &&done)
{
    after(params_.l2_cache.hit_latency,
          [this, paddr, done = std::move(done)]() mutable {
              if (l2_cache_->access(paddr)) {
                  done();
                  return;
              }
              dram_->access(std::move(done));
          });
}

void
Chiplet::shootdownVpns(ProcessId pid, const std::vector<Vpn> &vpns)
{
    for (Vpn vpn : vpns) {
        for (auto &l1 : l1_tlbs_)
            l1->invalidate(pid, vpn);
        // The shared-L2 hypothetical's TLB is host-owned; the migrator
        // invalidates it host-side when it launches the broadcast.
        if (!shared_svc_)
            l2_tlb_->invalidate(pid, vpn);
    }
}

std::uint64_t
Chiplet::shootdownAsid(ProcessId pid)
{
    std::uint64_t removed = 0;
    for (auto &l1 : l1_tlbs_)
        removed += l1->invalidateAsid(pid);
    // The shared-L2 hypothetical's TLB is host-owned; its shootdown
    // would have to travel the service links (the scenario engine
    // refuses that configuration instead).
    if (owned_l2_tlb_)
        removed += owned_l2_tlb_->invalidateAsid(pid);
    return removed;
}

} // namespace barre
