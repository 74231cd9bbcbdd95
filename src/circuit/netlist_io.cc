#include "circuit/netlist_io.h"

#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace nano::circuit {

namespace {

const char* functionToken(CellFunction f) { return nameOf(f); }

CellFunction parseFunction(const std::string& token, int line) {
  static const std::map<std::string, CellFunction> kByName = {
      {"INV", CellFunction::Inv},       {"BUF", CellFunction::Buf},
      {"NAND2", CellFunction::Nand2},   {"NAND3", CellFunction::Nand3},
      {"NOR2", CellFunction::Nor2},     {"NOR3", CellFunction::Nor3},
      {"XOR2", CellFunction::Xor2},     {"LVLCONV", CellFunction::LevelConverter},
  };
  const auto it = kByName.find(token);
  if (it == kByName.end()) {
    throw std::runtime_error("netlist parse: unknown function '" + token +
                             "' at line " + std::to_string(line));
  }
  return it->second;
}

[[noreturn]] void fail(int line, const std::string& what) {
  throw std::runtime_error("netlist parse: " + what + " at line " +
                           std::to_string(line));
}

}  // namespace

void writeNetlist(std::ostream& os, const Netlist& netlist) {
  // Round-trippable doubles (wire caps, drives).
  os.precision(17);
  os << "# nanodesign netlist v1\n";
  os << "netlist wirecap " << netlist.wireCapPerFanout() << " outload "
     << netlist.outputLoadCap() << "\n";
  for (int i = 0; i < netlist.nodeCount(); ++i) {
    const auto& n = netlist.node(i);
    if (n.kind == Netlist::NodeKind::PrimaryInput) {
      os << "input " << i << "\n";
    } else {
      os << "gate " << i << ' ' << functionToken(n.cell.function) << " drive "
         << n.cell.drive << " vth "
         << (n.cell.vth == VthClass::Low ? "low" : "high") << " vdd "
         << (n.cell.vddDomain == VddDomain::High ? "high" : "low")
         << " fanins";
      for (int f : n.fanins) os << ' ' << f;
      os << "\n";
    }
  }
  for (int out : netlist.outputs()) os << "output " << out << "\n";
}

Netlist readNetlist(std::istream& is, const Library& library) {
  std::string lineText;
  int lineNo = 0;
  bool haveHeader = false;
  NetlistBuilder netlist;
  std::map<int, int> idMap;  // file id -> in-memory id

  while (std::getline(is, lineText)) {
    ++lineNo;
    std::istringstream line(lineText);
    std::string keyword;
    if (!(line >> keyword) || keyword[0] == '#') continue;

    if (keyword == "netlist") {
      std::string wirecapKw, outloadKw;
      double wirecap = 0.0, outload = 0.0;
      if (!(line >> wirecapKw >> wirecap >> outloadKw >> outload) ||
          wirecapKw != "wirecap" || outloadKw != "outload") {
        fail(lineNo, "malformed header");
      }
      netlist = NetlistBuilder(wirecap, outload);
      haveHeader = true;
    } else if (keyword == "input") {
      if (!haveHeader) fail(lineNo, "input before header");
      int id = -1;
      if (!(line >> id)) fail(lineNo, "malformed input");
      idMap[id] = netlist.addInput();
    } else if (keyword == "gate") {
      if (!haveHeader) fail(lineNo, "gate before header");
      int id = -1;
      std::string fnToken, driveKw, vthKw, vthVal, vddKw, vddVal, faninsKw;
      double drive = 0.0;
      if (!(line >> id >> fnToken >> driveKw >> drive >> vthKw >> vthVal >>
            vddKw >> vddVal >> faninsKw) ||
          driveKw != "drive" || vthKw != "vth" || vddKw != "vdd" ||
          faninsKw != "fanins") {
        fail(lineNo, "malformed gate");
      }
      const CellFunction fn = parseFunction(fnToken, lineNo);
      const VthClass vth = vthVal == "low" ? VthClass::Low : VthClass::High;
      const VddDomain dom =
          vddVal == "high" ? VddDomain::High : VddDomain::Low;
      std::vector<int> fanins;
      int f = -1;
      while (line >> f) {
        const auto it = idMap.find(f);
        if (it == idMap.end()) fail(lineNo, "fanin references unknown id");
        fanins.push_back(it->second);
      }
      const Cell cell = library.generateCustom(fn, drive, vth, dom);
      idMap[id] = netlist.addGate(cell, fanins);
    } else if (keyword == "output") {
      int id = -1;
      if (!(line >> id)) fail(lineNo, "malformed output");
      const auto it = idMap.find(id);
      if (it == idMap.end()) fail(lineNo, "output references unknown id");
      netlist.markOutput(it->second);
    } else {
      fail(lineNo, "unknown keyword '" + keyword + "'");
    }
  }
  if (!haveHeader) throw std::runtime_error("netlist parse: empty input");
  Netlist built = netlist.build();
  built.validate();
  return built;
}

}  // namespace nano::circuit
