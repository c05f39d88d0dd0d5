#include "engine/types.h"

namespace wlm {

const char* QueryKindToString(QueryKind kind) {
  switch (kind) {
    case QueryKind::kOltpTransaction:
      return "OLTP";
    case QueryKind::kBiQuery:
      return "BI";
    case QueryKind::kUtility:
      return "UTILITY";
  }
  return "?";
}

}  // namespace wlm
