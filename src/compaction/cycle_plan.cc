#include "compaction/cycle_plan.hh"

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "compaction/scc_algorithm.hh"

namespace iwc::compaction
{

const char *
modeName(Mode m)
{
    switch (m) {
      case Mode::Baseline: return "baseline";
      case Mode::IvbOpt:   return "ivb-opt";
      case Mode::Bcc:      return "bcc";
      case Mode::Scc:      return "scc";
      case Mode::NumModes: break;
    }
    return "?";
}

unsigned
CyclePlan::swizzledLanes() const
{
    unsigned count = 0;
    for (const CycleSlot &slot : slots)
        for (unsigned n = 0; n < groupWidth; ++n)
            if (slot.lanes[n].enabled() &&
                slot.lanes[n].srcLane != static_cast<std::int8_t>(n))
                ++count;
    return count;
}

namespace
{

/**
 * True if the Ivy Bridge native optimization applies: SIMD16 with the
 * whole upper or lower half of the channels disabled (Section 5.2).
 */
bool
ivbHalfApplies(const ExecShape &shape)
{
    if (shape.simdWidth != 16)
        return false;
    const LaneMask mask = shape.maskedExec();
    const LaneMask lower = mask & 0x00ff;
    const LaneMask upper = mask & 0xff00;
    return lower == 0 || upper == 0;
}

/** Identity (no swizzle) slot for channel group @p g. */
CycleSlot
identitySlot(unsigned g, unsigned gw, LaneMask bits)
{
    CycleSlot slot;
    for (unsigned n = 0; n < gw; ++n) {
        if (bits & (LaneMask{1} << n)) {
            slot.lanes[n].srcGroup = static_cast<std::int8_t>(g);
            slot.lanes[n].srcLane = static_cast<std::int8_t>(n);
        }
    }
    return slot;
}

} // namespace

unsigned
planCycleCount(Mode mode, const ExecShape &shape)
{
    const unsigned gw = groupWidth(shape.simdWidth, shape.elemBytes);
    const unsigned n_groups = numGroups(shape.simdWidth, shape.elemBytes);
    const LaneMask mask = shape.maskedExec();

    switch (mode) {
      case Mode::Baseline:
        return n_groups;
      case Mode::IvbOpt:
        return ivbHalfApplies(shape) ? n_groups / 2 : n_groups;
      case Mode::Bcc: {
        unsigned cycles = 0;
        for (unsigned g = 0; g < n_groups; ++g)
            if (extractGroup(mask, g, gw) != 0)
                ++cycles;
        return cycles;
      }
      case Mode::Scc:
        return static_cast<unsigned>(ceilDiv(popCount(mask), gw));
      case Mode::NumModes:
        break;
    }
    panic("bad compaction mode");
}

CyclePlan
planCycles(Mode mode, const ExecShape &shape)
{
    const unsigned gw = groupWidth(shape.simdWidth, shape.elemBytes);
    const unsigned n_groups = numGroups(shape.simdWidth, shape.elemBytes);
    const LaneMask mask = shape.maskedExec();
    // identitySlot fills kMaxGroupWidth-sized lane arrays; the same
    // bound planScc checks.
    panic_if(gw > kMaxGroupWidth,
             "cycle plan: group width %u exceeds %u (element size %u "
             "below the ISA minimum?)",
             gw, kMaxGroupWidth, shape.elemBytes);

    if (mode == Mode::Scc)
        return planScc(shape);

    CyclePlan plan;
    plan.groupWidth = gw;
    plan.numGroups = n_groups;

    switch (mode) {
      case Mode::Baseline:
        for (unsigned g = 0; g < n_groups; ++g)
            plan.slots.push_back(
                identitySlot(g, gw, extractGroup(mask, g, gw)));
        break;
      case Mode::IvbOpt: {
        const bool halved = ivbHalfApplies(shape);
        const bool lower_active = (mask & 0x00ff) != 0;
        for (unsigned g = 0; g < n_groups; ++g) {
            if (halved) {
                const bool in_lower = g < n_groups / 2;
                if (in_lower != lower_active)
                    continue; // the dead half is dropped
            }
            plan.slots.push_back(
                identitySlot(g, gw, extractGroup(mask, g, gw)));
        }
        break;
      }
      case Mode::Bcc:
        for (unsigned g = 0; g < n_groups; ++g) {
            const LaneMask bits = extractGroup(mask, g, gw);
            if (bits != 0)
                plan.slots.push_back(identitySlot(g, gw, bits));
        }
        break;
      case Mode::Scc:
      case Mode::NumModes:
        panic("unreachable");
    }
    return plan;
}

bool
verifyPlan(const CyclePlan &plan, const ExecShape &shape)
{
    const LaneMask mask = shape.maskedExec();
    LaneMask issued = 0;
    for (const CycleSlot &slot : plan.slots) {
        for (unsigned n = 0; n < plan.groupWidth; ++n) {
            const LaneSel &sel = slot.lanes[n];
            if (!sel.enabled())
                continue;
            const unsigned channel =
                static_cast<unsigned>(sel.srcGroup) * plan.groupWidth +
                static_cast<unsigned>(sel.srcLane);
            const LaneMask bit = LaneMask{1} << channel;
            if (!(mask & bit))
                return false; // issued a disabled channel
            if (issued & bit)
                return false; // issued a channel twice
            issued |= bit;
        }
    }
    return issued == mask;
}

} // namespace iwc::compaction
