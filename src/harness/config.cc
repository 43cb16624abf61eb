#include "harness/config.hh"

#include "sim/logging.hh"

namespace barre
{

std::string
to_string(TranslationMode m)
{
    switch (m) {
      case TranslationMode::baseline:
        return "baseline";
      case TranslationMode::valkyrie:
        return "Valkyrie";
      case TranslationMode::least:
        return "Least";
      case TranslationMode::barre:
        return "Barre";
      case TranslationMode::fbarre:
        return "F-Barre";
    }
    barre_panic("unknown mode");
}

void
requireSupportedChiplets(unsigned chiplets, const char *what)
{
    if (chiplets < 1 || chiplets > PecEntry::max_gpus)
        barre_fatal("%s: %u is outside 1..%u. A PEC entry maps at most "
                    "PecEntry::max_gpus = %u chiplets, and the PTE's "
                    "11-bit coalescing budget (ignored bits 52..62) has "
                    "no inter-GPU order past 15",
                    what, chiplets, PecEntry::max_gpus,
                    PecEntry::max_gpus);
}

SystemConfigHandle
freezeConfig(SystemConfig cfg)
{
    cfg.normalize();
    return std::make_shared<const SystemConfig>(std::move(cfg));
}

void
SystemConfig::normalize()
{
    chiplet.cus = cus_per_chiplet;
    chiplet.page_size = page_size;
    migration.page_bytes = pageBytes(page_size);

    switch (mode) {
      case TranslationMode::baseline:
        driver.barre = false;
        iommu.barre = false;
        chiplet.sibling_l1_probe = false;
        break;
      case TranslationMode::valkyrie:
        driver.barre = false;
        iommu.barre = false;
        chiplet.sibling_l1_probe = true;
        break;
      case TranslationMode::least:
        driver.barre = false;
        iommu.barre = false;
        chiplet.sibling_l1_probe = false;
        break;
      case TranslationMode::barre:
        driver.barre = true;
        driver.merge_limit = 1;
        iommu.barre = true;
        iommu.coal_aware_sched = false;
        chiplet.sibling_l1_probe = false;
        break;
      case TranslationMode::fbarre:
        driver.barre = true;
        iommu.barre = true;
        chiplet.sibling_l1_probe = false;
        fbarre.merge_width = driver.merge_limit;
        break;
    }
    iommu.merge_width = driver.merge_limit;
    gmmu.barre = iommu.barre;
}

SystemConfig
SystemConfig::baselineAts()
{
    SystemConfig cfg;
    cfg.mode = TranslationMode::baseline;
    return cfg;
}

SystemConfig
SystemConfig::valkyrieCfg()
{
    SystemConfig cfg;
    cfg.mode = TranslationMode::valkyrie;
    return cfg;
}

SystemConfig
SystemConfig::leastCfg()
{
    SystemConfig cfg;
    cfg.mode = TranslationMode::least;
    return cfg;
}

SystemConfig
SystemConfig::barreCfg()
{
    SystemConfig cfg;
    cfg.mode = TranslationMode::barre;
    return cfg;
}

SystemConfig
SystemConfig::fbarreCfg(std::uint32_t merge_limit)
{
    SystemConfig cfg;
    cfg.mode = TranslationMode::fbarre;
    cfg.driver.merge_limit = merge_limit;
    cfg.iommu.coal_aware_sched = true;
    cfg.fbarre.peer_sharing = true;
    return cfg;
}

} // namespace barre
