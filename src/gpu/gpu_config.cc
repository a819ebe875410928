#include "gpu/gpu_config.hh"

#include <charconv>
#include <functional>
#include <string_view>
#include <vector>

#include "common/hash.hh"
#include "common/logging.hh"
#include "compaction/cycle_plan.hh"

namespace iwc::gpu
{

GpuConfig
ivbConfig()
{
    return GpuConfig{};
}

GpuConfig
ivbConfig(compaction::Mode mode)
{
    GpuConfig config;
    config.eu.mode = mode;
    return config;
}

compaction::Mode
parseMode(const std::string &name)
{
    if (name == "baseline")
        return compaction::Mode::Baseline;
    if (name == "ivb" || name == "ivb-opt")
        return compaction::Mode::IvbOpt;
    if (name == "bcc")
        return compaction::Mode::Bcc;
    if (name == "scc")
        return compaction::Mode::Scc;
    fatal("unknown compaction mode '%s'", name.c_str());
}

SimEngine
parseSimEngine(const std::string &name)
{
    if (name == "event")
        return SimEngine::Event;
    if (name == "reference" || name == "ref")
        return SimEngine::Reference;
    fatal("unknown simulation engine '%s' (event|reference)",
          name.c_str());
}

namespace
{

/**
 * One canonically-encoded field: how to print it and how to parse it
 * back. Encode and decode share this single table, so a field added
 * here is automatically covered by both directions (and by the
 * digest, which hashes the encoded text).
 */
struct Field
{
    const char *key;
    std::function<std::uint64_t(const GpuConfig &)> get;
    std::function<bool(GpuConfig &, std::string_view)> set;
};

bool
parseU64(std::string_view v, std::uint64_t &out)
{
    const auto *end = v.data() + v.size();
    const auto r = std::from_chars(v.data(), end, out);
    return r.ec == std::errc() && r.ptr == end && !v.empty();
}

template <typename T>
Field
numField(const char *key, T GpuConfig::*member)
{
    return {key,
            [member](const GpuConfig &c) {
                return static_cast<std::uint64_t>(c.*member);
            },
            [member](GpuConfig &c, std::string_view v) {
                std::uint64_t n = 0;
                if (!parseU64(v, n))
                    return false;
                c.*member = static_cast<T>(n);
                return true;
            }};
}

template <typename T>
Field
numField(const char *key, T eu::EuConfig::*member)
{
    return {key,
            [member](const GpuConfig &c) {
                return static_cast<std::uint64_t>(c.eu.*member);
            },
            [member](GpuConfig &c, std::string_view v) {
                std::uint64_t n = 0;
                if (!parseU64(v, n))
                    return false;
                c.eu.*member = static_cast<T>(n);
                return true;
            }};
}

template <typename T>
Field
numField(const char *key, T mem::MemConfig::*member)
{
    return {key,
            [member](const GpuConfig &c) {
                return static_cast<std::uint64_t>(c.mem.*member);
            },
            [member](GpuConfig &c, std::string_view v) {
                std::uint64_t n = 0;
                if (!parseU64(v, n))
                    return false;
                c.mem.*member = static_cast<T>(n);
                return true;
            }};
}

/**
 * Every simulation-relevant config field in canonical order. New
 * fields must be appended here or encodeCanonical silently under-
 * specifies the cache key (ConfigDigest.EveryFieldChangesTheDigest
 * in tests/test_run_harness.cc mutates one field per entry, so keep
 * its mutation list in step with this table).
 */
const std::vector<Field> &
fieldTable()
{
    static const std::vector<Field> table = {
        numField("num_eus", &GpuConfig::numEus),
        numField("dispatch_latency", &GpuConfig::dispatchLatency),
        numField("max_cycles", &GpuConfig::maxCycles),
        numField("eu.num_threads", &eu::EuConfig::numThreads),
        {"eu.mode",
         [](const GpuConfig &c) {
             return static_cast<std::uint64_t>(c.eu.mode);
         },
         [](GpuConfig &c, std::string_view v) {
             std::uint64_t n = 0;
             if (!parseU64(v, n) || n >= compaction::kNumModes)
                 return false;
             c.eu.mode = static_cast<compaction::Mode>(n);
             return true;
         }},
        {"eu.backend",
         [](const GpuConfig &c) {
             return static_cast<std::uint64_t>(c.eu.backend);
         },
         [](GpuConfig &c, std::string_view v) {
             std::uint64_t n = 0;
             if (!parseU64(v, n) ||
                 n > static_cast<std::uint64_t>(func::BackendKind::Vector))
                 return false;
             c.eu.backend = static_cast<func::BackendKind>(n);
             return true;
         }},
        numField("eu.issue_width", &eu::EuConfig::issueWidth),
        numField("eu.arb_period", &eu::EuConfig::arbitrationPeriod),
        numField("eu.fpu_latency", &eu::EuConfig::fpuLatency),
        numField("eu.em_latency", &eu::EuConfig::emLatency),
        numField("eu.send_issue_latency", &eu::EuConfig::sendIssueLatency),
        numField("eu.writeback_latency", &eu::EuConfig::writebackLatency),
        numField("eu.ctrl_cycles", &eu::EuConfig::ctrlCycles),
        numField("eu.send_cycles", &eu::EuConfig::sendCycles),
        numField("mem.l3_bytes", &mem::MemConfig::l3Bytes),
        numField("mem.l3_ways", &mem::MemConfig::l3Ways),
        numField("mem.l3_banks", &mem::MemConfig::l3Banks),
        numField("mem.l3_latency", &mem::MemConfig::l3Latency),
        numField("mem.llc_bytes", &mem::MemConfig::llcBytes),
        numField("mem.llc_ways", &mem::MemConfig::llcWays),
        numField("mem.llc_banks", &mem::MemConfig::llcBanks),
        numField("mem.llc_latency", &mem::MemConfig::llcLatency),
        numField("mem.dc_lines_per_cycle", &mem::MemConfig::dcLinesPerCycle),
        numField("mem.dram_latency", &mem::MemConfig::dramLatency),
        numField("mem.dram_cycles_per_line",
                 &mem::MemConfig::dramCyclesPerLine),
        numField("mem.slm_latency", &mem::MemConfig::slmLatency),
        numField("mem.slm_banks", &mem::MemConfig::slmBanks),
        numField("mem.slm_bank_bytes", &mem::MemConfig::slmBankBytes),
        {"mem.perfect_l3",
         [](const GpuConfig &c) {
             return static_cast<std::uint64_t>(c.mem.perfectL3);
         },
         [](GpuConfig &c, std::string_view v) {
             if (v != "0" && v != "1")
                 return false;
             c.mem.perfectL3 = v == "1";
             return true;
         }},
    };
    return table;
}

constexpr const char *kConfigVersionLine = "iwc_config=1";

} // namespace

std::string
encodeCanonical(const GpuConfig &config)
{
    std::string text = kConfigVersionLine;
    text += '\n';
    for (const Field &f : fieldTable()) {
        text += f.key;
        text += '=';
        text += std::to_string(f.get(config));
        text += '\n';
    }
    return text;
}

bool
decodeCanonical(const std::string &text, GpuConfig &out)
{
    out = GpuConfig{};
    std::string_view rest = text;
    bool sawVersion = false;
    while (!rest.empty()) {
        const std::size_t nl = rest.find('\n');
        const std::string_view line =
            nl == std::string_view::npos ? rest : rest.substr(0, nl);
        rest = nl == std::string_view::npos ? std::string_view{}
                                            : rest.substr(nl + 1);
        if (line.empty())
            continue;
        if (!sawVersion) {
            if (line != kConfigVersionLine)
                return false;
            sawVersion = true;
            continue;
        }
        const std::size_t eq = line.find('=');
        if (eq == std::string_view::npos)
            return false;
        const std::string_view key = line.substr(0, eq);
        const std::string_view value = line.substr(eq + 1);
        bool known = false;
        for (const Field &f : fieldTable()) {
            if (key != f.key)
                continue;
            known = true;
            if (!f.set(out, value))
                return false;
            break;
        }
        if (!known)
            return false;
    }
    return sawVersion;
}

std::uint64_t
configDigest(const GpuConfig &config)
{
    return fnv64(encodeCanonical(config));
}

GpuConfig
applyOptions(GpuConfig config, const OptionMap &opts)
{
    if (opts.has("mode"))
        config.eu.mode = parseMode(opts.getString("mode", ""));
    if (opts.has("backend")) {
        const std::string name = opts.getString("backend", "");
        if (!func::parseBackendKind(name, config.eu.backend))
            fatal("unknown backend '%s' (auto|scalar|vector)",
                  name.c_str());
    }
    // Engine selection never enters the canonical encoding: both
    // engines are bit-identical by construction (see SimEngine).
    if (opts.has("engine"))
        config.engine = parseSimEngine(opts.getString("engine", ""));
    config.numEus = static_cast<unsigned>(
        opts.getInt("eus", config.numEus));
    config.eu.numThreads = static_cast<unsigned>(
        opts.getInt("threads", config.eu.numThreads));
    config.mem.dcLinesPerCycle = static_cast<unsigned>(
        opts.getInt("dc", config.mem.dcLinesPerCycle));
    config.mem.perfectL3 = opts.getBool("perfect_l3",
                                        config.mem.perfectL3);
    config.eu.issueWidth = static_cast<unsigned>(
        opts.getInt("issue_width", config.eu.issueWidth));
    config.eu.arbitrationPeriod = static_cast<unsigned>(
        opts.getInt("arb_period", config.eu.arbitrationPeriod));
    config.mem.dramLatency = static_cast<Cycle>(
        opts.getInt("dram_latency",
                    static_cast<std::int64_t>(config.mem.dramLatency)));
    config.mem.l3Bytes = static_cast<std::uint64_t>(
        opts.getInt("l3_kb",
                    static_cast<std::int64_t>(config.mem.l3Bytes / 1024)))
        * 1024;
    config.mem.llcBytes = static_cast<std::uint64_t>(
        opts.getInt("llc_kb",
                    static_cast<std::int64_t>(
                        config.mem.llcBytes / 1024))) * 1024;
    return config;
}

} // namespace iwc::gpu
