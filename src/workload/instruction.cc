#include "workload/instruction.hh"

namespace wavedyn
{

const char *
instrClassName(InstrClass c)
{
    switch (c) {
      case InstrClass::IntAlu:
        return "ialu";
      case InstrClass::IntMul:
        return "imul";
      case InstrClass::FpAlu:
        return "falu";
      case InstrClass::FpMul:
        return "fmul";
      case InstrClass::Load:
        return "load";
      case InstrClass::Store:
        return "store";
      case InstrClass::Branch:
        return "branch";
      case InstrClass::Call:
        return "call";
      case InstrClass::Return:
        return "return";
    }
    return "?";
}

} // namespace wavedyn
