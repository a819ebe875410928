#include "lint/report.hh"

#include <cstdarg>
#include <cstdio>

#include "isa/disasm.hh"
#include "isa/kernel.hh"

namespace iwc::lint
{

const char *
checkName(Check check)
{
    switch (check) {
      case Check::Structure:   return "structure";
      case Check::UndefRead:   return "undef-read";
      case Check::Width:       return "width";
      case Check::Region:      return "region";
      case Check::BadSend:     return "bad-send";
      case Check::SelfHazard:  return "self-hazard";
      case Check::Unreachable: return "unreachable";
      case Check::NumChecks:   break;
    }
    return "?";
}

const char *
severityName(Severity severity)
{
    return severity == Severity::Error ? "error" : "warning";
}

void
Report::add(Check check, Severity severity, std::int32_t ip,
            const char *fmt, ...)
{
    char buf[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    diags.push_back(Diag{check, severity, ip, buf});
}

std::string
renderText(const Report &report, const isa::Kernel *kernel)
{
    std::string out;
    if (report.clean()) {
        out = report.kernel + ": clean\n";
        return out;
    }
    for (const Diag &d : report.diags) {
        out += report.kernel;
        if (d.ip >= 0) {
            out += '@';
            out += std::to_string(d.ip);
        }
        out += ": ";
        out += severityName(d.severity);
        out += " [";
        out += checkName(d.check);
        out += "]: ";
        out += d.message;
        if (kernel && d.ip >= 0 &&
            d.ip < static_cast<std::int32_t>(kernel->size())) {
            out += "\n    ";
            out += isa::instrToString(
                kernel->instr(static_cast<std::uint32_t>(d.ip)));
        }
        out += "\n";
    }
    return out;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
renderJson(const Report &report)
{
    std::string out = "{\"kernel\":\"" + jsonEscape(report.kernel) +
        "\",\"clean\":" + (report.clean() ? "true" : "false") +
        ",\"diagnostics\":[";
    for (std::size_t i = 0; i < report.diags.size(); ++i) {
        const Diag &d = report.diags[i];
        if (i)
            out += ",";
        out += "{\"check\":\"";
        out += checkName(d.check);
        out += "\",\"severity\":\"";
        out += severityName(d.severity);
        out += "\",\"ip\":" + std::to_string(d.ip) + ",\"message\":\"" +
            jsonEscape(d.message) + "\"}";
    }
    out += "]}";
    return out;
}

} // namespace iwc::lint
