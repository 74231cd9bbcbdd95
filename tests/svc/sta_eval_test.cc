// The `sta` request kind's wire output, pinned byte for byte. The payload
// carries the generated netlist's level count and the byte size of its
// flat arrays (`soa_bytes`), both of which the service's replay goldens
// and benchmark digests hash, so a change to the netlist layout or its
// level schedule must show up here first.
#include <gtest/gtest.h>

#include <string>

#include "exec/exec.h"
#include "svc/eval.h"
#include "svc/request.h"

namespace nano::svc {
namespace {

std::string respond(const std::string& line) {
  Request r;
  std::string error;
  EXPECT_TRUE(parseRequest(line, r, error)) << error;
  return makeResponse(r, evaluate(r)).toJsonLine();
}

TEST(StaEval, FixedRequestResponseBytesArePinned) {
  // 1000-gate, 4-block design at 35 nm: 1016 nodes, 17 levels, 67268
  // bytes of flat arrays.
  EXPECT_EQ(
      respond(R"({"id":"pin","kind":"sta","params":{"node_nm":35,)"
              R"("gates":1000,"seed":2024,"blocks":4}})"),
      R"({"id":"pin","kind":"sta","status":"ok","data":{"node_nm":35,)"
      R"("gates":1000,"nodes":1016,"endpoints":187,"levels":17,)"
      R"("critical_path_delay_ps":223.02143282394758,)"
      R"("critical_path_gates":14,)"
      R"("fraction_faster_than_half":0.7967914438502673,)"
      R"("soa_bytes":67268}})");

  // 20k gates sweeps its wide levels through the exec pool; the bytes do
  // not depend on the lane count.
  const std::string wide =
      R"({"id":"pin","kind":"sta","params":{"node_nm":100,"gates":20000,)"
      R"("seed":7,"blocks":8}})";
  const std::string expected =
      R"({"id":"pin","kind":"sta","status":"ok","data":{"node_nm":100,)"
      R"("gates":20000,"nodes":20064,"endpoints":1849,"levels":27,)"
      R"("critical_path_delay_ps":1057.1545412647827,)"
      R"("critical_path_gates":26,)"
      R"("fraction_faster_than_half":0.8702001081665766,)"
      R"("soa_bytes":1325316}})";
  const int before = exec::threadCount();
  for (const int lanes : {1, 4}) {
    exec::setGlobalThreadCount(lanes);
    EXPECT_EQ(respond(wide), expected) << lanes << " lanes";
  }
  exec::setGlobalThreadCount(before);
}

}  // namespace
}  // namespace nano::svc
