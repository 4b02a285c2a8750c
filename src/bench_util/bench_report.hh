/**
 * @file
 * Machine-readable bench reporting: BENCH_replay.json.
 *
 * Every sweep/analysis bench can emit a flat JSON object mapping a
 * sample key ("fig3/epoch/replay") to the replay measurement taken
 * under it: events consumed, wall seconds, derived events/sec, the
 * process peak RSS at sampling time, and the minor page faults taken
 * since the previous sample. The file is the repo's perf
 * trajectory record — the perf smoke test compares a fresh run
 * against the committed baseline, and EXPERIMENTS.md quotes it.
 *
 * The format is deliberately trivial (one nesting level, no arrays,
 * no escapes in keys) so both the writer and the reader here can be
 * dependency-free; readBenchJson only promises to parse what
 * BenchReport::writeJson produces.
 */

#ifndef PERSIM_BENCH_UTIL_BENCH_REPORT_HH
#define PERSIM_BENCH_UTIL_BENCH_REPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace persim {

/** One measured replay sample. */
struct BenchSample
{
    std::uint64_t events = 0;       //!< Trace events consumed.
    double wall_seconds = 0.0;      //!< Replay wall time.
    double events_per_sec = 0.0;    //!< events / wall_seconds.

    /**
     * Process-wide peak RSS (getrusage ru_maxrss) at the moment the
     * sample was recorded. This is a high-water mark for the WHOLE
     * process, not the footprint of this sample's replay: it never
     * decreases across samples in one report, and early samples
     * inherit whatever setup (trace generation, prior benches) already
     * touched. Compare it across runs of the same bench binary, not
     * across keys within one file.
     */
    std::uint64_t peak_rss_kb = 0;

    /**
     * Growth of the peak-RSS high-water mark since the previous add()
     * on the same report (since BenchReport construction for the first
     * sample). When a sample's replay allocated past every earlier
     * peak, this is the new memory it needed; 0 means the sample fit
     * entirely inside memory some earlier phase already reached —
     * which is why per-key attribution needs the samples ordered
     * smallest-footprint first.
     */
    std::uint64_t rss_delta_kb = 0;

    /**
     * Minor page faults (getrusage ru_minflt) the process took since
     * the previous add() on the same report (since construction for
     * the first sample): the pages this sample's work touched for the
     * first time, resident high-water mark or not. Files written
     * before the field existed read back as 0.
     */
    std::uint64_t minor_faults = 0;

    /**
     * CPU seconds (user + system, every thread) the process used
     * since the previous add() on the same report (since construction
     * for the first sample): the sample's own work when it is recorded
     * straight after the previous one's. Files written before the
     * field existed read back as 0.
     */
    double cpu_seconds = 0.0;
};

/** Current process peak resident set size in KiB (getrusage). */
std::uint64_t peakRssKb();

/** Minor page faults the process has taken so far (getrusage). */
std::uint64_t minorFaults();

/** CPU seconds (user + system) the process has used so far. */
double processCpuSeconds();

/** Accumulates samples and renders them as BENCH_replay.json. */
class BenchReport
{
  public:
    BenchReport()
        : last_peak_rss_kb_(peakRssKb()), last_minor_faults_(minorFaults()),
          last_cpu_seconds_(processCpuSeconds())
    {
    }

    /**
     * Record a sample under @p key (e.g. "fig3/epoch/replay"); the
     * events/sec, both RSS fields and minor_faults are derived here
     * (the deltas against the previous add(), or construction for
     * the first).
     * Keys must be unique per report and free of '"' and '\\'.
     */
    void add(const std::string &key, std::uint64_t events,
             double wall_seconds);

    bool empty() const { return entries_.empty(); }
    std::size_t size() const { return entries_.size(); }

    /** The JSON document (insertion order, trailing newline). */
    std::string renderJson() const;

    /** Write renderJson() to @p path; fatals on I/O failure. */
    void writeJson(const std::string &path) const;

  private:
    std::vector<std::pair<std::string, BenchSample>> entries_;

    /** Peak RSS observed at the last add() (rss_delta_kb baseline). */
    std::uint64_t last_peak_rss_kb_ = 0;

    /** Minor faults counted at the last add() (minor_faults baseline). */
    std::uint64_t last_minor_faults_ = 0;

    /** Process CPU time at the last add() (cpu_seconds baseline). */
    double last_cpu_seconds_ = 0.0;
};

/**
 * Parse a file written by BenchReport::writeJson back into key ->
 * sample form; fatals on a missing file or malformed document.
 */
std::map<std::string, BenchSample> readBenchJson(const std::string &path);

} // namespace persim

#endif // PERSIM_BENCH_UTIL_BENCH_REPORT_HH
