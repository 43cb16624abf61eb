/**
 * @file
 * Statistics primitives, gem5-flavoured: plain counters, sample
 * accumulators and a log-bucketed latency histogram, owned by the
 * components that update them. System::visitStats (harness/system.cc)
 * is the one list that names them for the stats dump and RunMetrics.
 */

#pragma once

#include <cstddef>
#include <cstdint>

namespace barre
{

/** A scalar counter. */
class Counter
{
  public:
    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(std::uint64_t n) { value_ += n; return *this; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** Accumulates samples; reports count/sum/mean/min/max. */
class Accumulator
{
  public:
    void
    sample(double v)
    {
        if (count_ == 0 || v < min_)
            min_ = v;
        if (count_ == 0 || v > max_)
            max_ = v;
        sum_ += v;
        ++count_;
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    void reset() { *this = Accumulator{}; }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Log-bucketed latency histogram with integer percentile readout.
 *
 * Values below 16 get exact unit buckets; larger values share eight
 * sub-buckets per power of two, so relative error stays under 1/8
 * while the footprint stays fixed (no per-sample storage). Everything
 * is integer arithmetic: two histograms fed the same samples in any
 * order are bitwise identical, merge() is plain bucket addition, and
 * percentile() is deterministic — the properties the multi-tenant
 * tail-latency metrics need to survive the serial-vs-partitioned
 * bitwise proof.
 */
class LogHistogram
{
  public:
    static constexpr std::size_t kLinear = 16;   ///< exact buckets [0,16)
    static constexpr std::size_t kSubBuckets = 8;
    static constexpr std::size_t kBuckets =
        kLinear + (64 - 4) * kSubBuckets; ///< covers all of uint64

    void
    sample(std::uint64_t v)
    {
        ++bins_[bucketOf(v)];
        ++count_;
        sum_ += v;
        if (count_ == 1 || v > max_)
            max_ = v;
    }

    /** Add @p other's buckets into this one (order-independent). */
    void
    merge(const LogHistogram &other)
    {
        for (std::size_t i = 0; i < kBuckets; ++i)
            bins_[i] += other.bins_[i];
        count_ += other.count_;
        sum_ += other.sum_;
        if (other.count_ && (count_ == other.count_ || other.max_ > max_))
            max_ = other.max_;
    }

    /**
     * Smallest bucket representative covering at least a @p p fraction
     * of the samples (p in [0, 1]); 0 when empty. The representative is
     * the bucket's lower bound plus half its width, so the value is an
     * integer function of the bucket counts alone.
     */
    std::uint64_t
    percentile(double p) const
    {
        if (count_ == 0)
            return 0;
        const std::uint64_t rank =
            static_cast<std::uint64_t>(p * static_cast<double>(count_));
        const std::uint64_t target = rank < count_ ? rank + 1 : count_;
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < kBuckets; ++i) {
            seen += bins_[i];
            if (seen >= target)
                return representative(i);
        }
        return representative(kBuckets - 1);
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t max() const { return max_; }

    static std::size_t
    bucketOf(std::uint64_t v)
    {
        if (v < kLinear)
            return static_cast<std::size_t>(v);
        const unsigned e = 63 - static_cast<unsigned>(__builtin_clzll(v));
        return kLinear + (e - 4) * kSubBuckets +
               static_cast<std::size_t>((v >> (e - 3)) & 7);
    }

    static std::uint64_t
    representative(std::size_t idx)
    {
        if (idx < kLinear)
            return idx;
        const unsigned e =
            4 + static_cast<unsigned>((idx - kLinear) / kSubBuckets);
        const std::uint64_t sub = (idx - kLinear) % kSubBuckets;
        const std::uint64_t lo =
            (std::uint64_t{1} << e) + (sub << (e - 3));
        return lo + (std::uint64_t{1} << (e - 4)); // + half sub-width
    }

  private:
    std::uint64_t bins_[kBuckets] = {};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t max_ = 0;
};

} // namespace barre

