"""Records whose declared fields are their codec (:mod:`repro.common.cdf`)."""

import sys
from dataclasses import MISSING, field, fields

from repro.errors import SerializationError

#: (encode, decode) converters: a template, ``{0}`` the value, a function,
#: or None for the value as is
FLOAT, INT, BOOL = (None, "float({0})"), (None, "int({0})"), \
    (None, "bool({0})")
DICT, LIST = ("dict({0})", "dict({0})"), ("list({0})", "list({0})")
TUPLE = ("list({0})", "tuple({0})")


def nested(name, keyed=False):
    """A tuple of records of module-global class *name*, a list on the
    wire; *keyed*: a dict of them, decoded one by one through an adder."""
    if keyed:
        return ("[x.to_dict() for x in {0}.values()]",
                f"{name}.from_dict({{0}})")
    return ("[x.to_dict() for x in {0}]",
            f"tuple([{name}.from_dict(x) for x in {{0}}])")


def wire(default=MISSING, *, factory=MISSING, **meta):
    """A field with codec metadata: ``key`` (its wire name), ``codec`` (a
    converter pair), ``adder`` (the method given each decoded item)."""
    return field(default=default, default_factory=factory, metadata=meta)


def _refused(name, key, exc):
    if isinstance(exc, KeyError) and exc.args == (key,):
        return SerializationError(f"{name} record missing field {key!r}")
    return SerializationError(f"{name} record field {key!r}: {exc}")


def codec(name, *, tagged=False, derived=()):
    """Compile a dataclass's ``to_dict`` / ``from_dict`` from its fields,
    once, as :mod:`dataclasses` builds ``__init__`` (no per-field loop
    per call); *tagged* leads the dict with ``"record": name``, each
    *derived* (property, field) emits the property after the field."""
    def build(cls):
        enc, dec, init, adds = [f"'record': {name!r}"] * tagged, "", [], ""
        env = {"_refused": _refused}
        for i, f in enumerate(fields(cls)):
            key, adder = f.metadata.get("key", f.name), f.metadata.get("adder")
            to, back = f.metadata.get("codec", (None, None))
            if callable(to):  # a function is bound, a template inlined
                env[f"_e{i}"], to = to, f"_e{i}({{0}})"
            if callable(back):
                env[f"_b{i}"], back = back, f"_b{i}({{0}})"
            enc += [f"{key!r}: " + (to or "{0}").format(f"self.{f.name}")] + [
                f"{p!r}: self.{p}" for p, after in derived if after == f.name]
            read = f"data[{key!r}]"
            if f.default is not MISSING or f.default_factory is not MISSING:
                env[f"_d{i}"] = f.default_factory if f.default is MISSING \
                    else f.default  # a factory is called per decode
                read += f" if {key!r} in data else _d{i}" + \
                    "()" * (f.default is MISSING)
            conv = back.format("v") if back and not adder else "v"
            dec += f"   k = {key!r}; v = {read}; a{i} = {conv}\n"
            if adder:
                adds += f"  for x in a{i}: obj.{adder}({back.format('x')})\n"
            else:
                init.append(f"{f.name}=a{i}")
        bound = ", ".join(f"{n}={n}" for n in env)
        exec(f"def to_dict(self, {bound}):\n return {{{', '.join(enc)}}}\n"
             f"def from_dict(cls, data, {bound}):\n  try:\n{dec}  except ("
             f"LookupError, ValueError, TypeError, AttributeError) as exc:\n"
             f"   raise _refused({name!r}, k, exc) from None\n"
             f"  obj = cls({', '.join(init)})\n{adds}  return obj\n",
             vars(sys.modules[cls.__module__]), env)
        cls.to_dict = env["to_dict"]
        cls.from_dict = classmethod(env["from_dict"])
        cls.record_tag = name if tagged else None
        return cls
    return build
