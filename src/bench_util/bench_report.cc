#include "bench_util/bench_report.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include <sys/resource.h>

#include "common/error.hh"

namespace persim {

std::uint64_t
peakRssKb()
{
    struct rusage usage = {};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
    // Linux reports ru_maxrss in KiB already.
    return static_cast<std::uint64_t>(usage.ru_maxrss);
}

std::uint64_t
minorFaults()
{
    struct rusage usage = {};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
    return static_cast<std::uint64_t>(usage.ru_minflt);
}

double
processCpuSeconds()
{
    struct rusage usage = {};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    const auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
            static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

void
BenchReport::add(const std::string &key, std::uint64_t events,
                 double wall_seconds)
{
    PERSIM_REQUIRE(key.find('"') == std::string::npos &&
                       key.find('\\') == std::string::npos,
                   "bench sample key must not need JSON escaping: "
                       << key);
    for (const auto &entry : entries_)
        PERSIM_REQUIRE(entry.first != key,
                       "duplicate bench sample key: " << key);
    BenchSample sample;
    sample.events = events;
    sample.wall_seconds = wall_seconds;
    sample.events_per_sec = wall_seconds > 0.0
        ? static_cast<double>(events) / wall_seconds
        : 0.0;
    sample.peak_rss_kb = peakRssKb();
    // ru_maxrss is a high-water mark, so the delta is never negative;
    // guard anyway in case getrusage failed and returned 0.
    sample.rss_delta_kb = sample.peak_rss_kb > last_peak_rss_kb_
        ? sample.peak_rss_kb - last_peak_rss_kb_
        : 0;
    last_peak_rss_kb_ = sample.peak_rss_kb;
    const std::uint64_t faults = minorFaults();
    sample.minor_faults =
        faults > last_minor_faults_ ? faults - last_minor_faults_ : 0;
    last_minor_faults_ = faults;
    const double cpu = processCpuSeconds();
    sample.cpu_seconds =
        cpu > last_cpu_seconds_ ? cpu - last_cpu_seconds_ : 0.0;
    last_cpu_seconds_ = cpu;
    entries_.emplace_back(key, sample);
}

std::string
BenchReport::renderJson() const
{
    std::ostringstream oss;
    oss << "{\n";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const auto &[key, sample] = entries_[i];
        char number[64];
        oss << "  \"" << key << "\": {\n";
        oss << "    \"events\": " << sample.events << ",\n";
        std::snprintf(number, sizeof(number), "%.9g",
                      sample.wall_seconds);
        oss << "    \"wall_seconds\": " << number << ",\n";
        std::snprintf(number, sizeof(number), "%.9g",
                      sample.events_per_sec);
        oss << "    \"events_per_sec\": " << number << ",\n";
        oss << "    \"peak_rss_kb\": " << sample.peak_rss_kb << ",\n";
        oss << "    \"rss_delta_kb\": " << sample.rss_delta_kb << ",\n";
        oss << "    \"minor_faults\": " << sample.minor_faults << ",\n";
        std::snprintf(number, sizeof(number), "%.6f",
                      sample.cpu_seconds);
        oss << "    \"cpu_seconds\": " << number << "\n";
        oss << "  }" << (i + 1 < entries_.size() ? "," : "") << "\n";
    }
    oss << "}\n";
    return oss.str();
}

void
BenchReport::writeJson(const std::string &path) const
{
    std::FILE *file = std::fopen(path.c_str(), "wb");
    PERSIM_REQUIRE(file != nullptr,
                   "cannot open bench report for writing: " << path);
    const std::string body = renderJson();
    const std::size_t written =
        std::fwrite(body.data(), 1, body.size(), file);
    const bool closed = std::fclose(file) == 0;
    PERSIM_REQUIRE(written == body.size() && closed,
                   "short write to bench report: " << path);
}

namespace {

/** Minimal scanner for the fixed document shape writeJson emits. */
class JsonScanner
{
  public:
    JsonScanner(const std::string &text, const std::string &path)
        : text_(text), path_(path)
    {
    }

    void
    expect(char c)
    {
        skipSpace();
        PERSIM_REQUIRE(at_ < text_.size() && text_[at_] == c,
                       "malformed bench report (expected '"
                           << c << "'): " << path_);
        ++at_;
    }

    bool
    peek(char c)
    {
        skipSpace();
        return at_ < text_.size() && text_[at_] == c;
    }

    std::string
    string()
    {
        expect('"');
        const std::size_t start = at_;
        while (at_ < text_.size() && text_[at_] != '"')
            ++at_;
        PERSIM_REQUIRE(at_ < text_.size(),
                       "malformed bench report (unterminated string): "
                           << path_);
        return text_.substr(start, at_++ - start);
    }

    double
    number()
    {
        skipSpace();
        const char *begin = text_.c_str() + at_;
        char *end = nullptr;
        const double value = std::strtod(begin, &end);
        PERSIM_REQUIRE(end != begin,
                       "malformed bench report (expected number): "
                           << path_);
        at_ += static_cast<std::size_t>(end - begin);
        return value;
    }

  private:
    void
    skipSpace()
    {
        while (at_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[at_])))
            ++at_;
    }

    const std::string &text_;
    const std::string &path_;
    std::size_t at_ = 0;
};

} // namespace

std::map<std::string, BenchSample>
readBenchJson(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    PERSIM_REQUIRE(file != nullptr,
                   "cannot open bench report for reading: " << path);
    std::string text;
    char chunk[4096];
    std::size_t got;
    while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0)
        text.append(chunk, got);
    std::fclose(file);

    std::map<std::string, BenchSample> samples;
    JsonScanner scan(text, path);
    scan.expect('{');
    if (!scan.peek('}')) {
        while (true) {
            const std::string key = scan.string();
            scan.expect(':');
            scan.expect('{');
            BenchSample sample;
            while (true) {
                const std::string field = scan.string();
                scan.expect(':');
                const double value = scan.number();
                if (field == "events")
                    sample.events =
                        static_cast<std::uint64_t>(value);
                else if (field == "wall_seconds")
                    sample.wall_seconds = value;
                else if (field == "events_per_sec")
                    sample.events_per_sec = value;
                else if (field == "peak_rss_kb")
                    sample.peak_rss_kb =
                        static_cast<std::uint64_t>(value);
                else if (field == "rss_delta_kb")
                    sample.rss_delta_kb =
                        static_cast<std::uint64_t>(value);
                else if (field == "minor_faults")
                    sample.minor_faults =
                        static_cast<std::uint64_t>(value);
                else if (field == "cpu_seconds")
                    sample.cpu_seconds = value;
                else
                    PERSIM_REQUIRE(false,
                                   "malformed bench report (unknown "
                                   "field '" << field
                                             << "'): " << path);
                if (scan.peek('}'))
                    break;
                scan.expect(',');
            }
            scan.expect('}');
            PERSIM_REQUIRE(samples.emplace(key, sample).second,
                           "duplicate bench report key '"
                               << key << "': " << path);
            if (scan.peek('}'))
                break;
            scan.expect(',');
        }
    }
    scan.expect('}');
    return samples;
}

} // namespace persim
