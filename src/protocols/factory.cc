#include "protocols/factory.h"

#include "common/check.h"
#include "core/pcp_da.h"
#include "protocols/ccp.h"
#include "protocols/occ.h"
#include "protocols/opcp.h"
#include "protocols/rw_pcp.h"
#include "protocols/two_pl_hp.h"
#include "protocols/two_pl_pi.h"

namespace pcpda {

const char* ToString(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kPcpDa:
      return "PCP-DA";
    case ProtocolKind::kRwPcp:
      return "RW-PCP";
    case ProtocolKind::kCcp:
      return "CCP";
    case ProtocolKind::kOpcp:
      return "PCP";
    case ProtocolKind::kTwoPlPi:
      return "2PL-PI";
    case ProtocolKind::kTwoPlHp:
      return "2PL-HP";
    case ProtocolKind::kOccBc:
      return "OCC-BC";
    case ProtocolKind::kOccDa:
      return "OCC-DA";
  }
  return "unknown";
}

std::optional<ProtocolKind> ProtocolKindByName(const std::string& name) {
  for (ProtocolKind kind : AllProtocolKinds()) {
    if (name == ToString(kind)) return kind;
  }
  return std::nullopt;
}

std::vector<ProtocolKind> AllProtocolKinds() {
  return {ProtocolKind::kPcpDa,   ProtocolKind::kRwPcp,
          ProtocolKind::kCcp,     ProtocolKind::kOpcp,
          ProtocolKind::kTwoPlPi, ProtocolKind::kTwoPlHp,
          ProtocolKind::kOccBc,   ProtocolKind::kOccDa};
}

std::vector<ProtocolKind> AnalyzableProtocolKinds() {
  std::vector<ProtocolKind> kinds;
  for (ProtocolKind kind : AllProtocolKinds()) {
    if (TraitsOf(kind).analyzable()) kinds.push_back(kind);
  }
  return kinds;
}

std::unique_ptr<Protocol> MakeProtocol(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kPcpDa:
      return std::make_unique<PcpDa>();
    case ProtocolKind::kRwPcp:
      return std::make_unique<RwPcp>();
    case ProtocolKind::kCcp:
      return std::make_unique<Ccp>();
    case ProtocolKind::kOpcp:
      return std::make_unique<Opcp>();
    case ProtocolKind::kTwoPlPi:
      return std::make_unique<TwoPlPi>();
    case ProtocolKind::kTwoPlHp:
      return std::make_unique<TwoPlHp>();
    case ProtocolKind::kOccBc:
      return std::make_unique<OccBc>();
    case ProtocolKind::kOccDa:
      return std::make_unique<OccDa>();
  }
  PCPDA_UNREACHABLE("bad ProtocolKind");
}

}  // namespace pcpda
