//===- hb/PartialOrderEngine.cpp - Pluggable ordering oracles --------------===//

#include "hb/PartialOrderEngine.h"

#include <cstring>

using namespace wr;

const char *wr::toString(EngineKind Kind) {
  switch (Kind) {
  case EngineKind::Hb:
    return "hb";
  case EngineKind::Shb:
    return "shb";
  case EngineKind::Wcp:
    return "wcp";
  }
  return "unknown";
}

bool wr::parseEngineKind(const char *Name, EngineKind &Out) {
  for (EngineKind K : {EngineKind::Hb, EngineKind::Shb, EngineKind::Wcp}) {
    if (std::strcmp(Name, toString(K)) == 0) {
      Out = K;
      return true;
    }
  }
  return false;
}
