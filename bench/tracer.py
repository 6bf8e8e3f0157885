"""Outside-in tracer: spans around calls into the package's public functions.

Wrap targets are discovered at run time, so a function that a later version
fuses, renames or deletes simply stops producing spans:

* every function named in a package module's ``__all__`` (or, for a module
  without ``__all__``, every public function it defines);
* the public methods (plain, static and class methods; not properties) of
  the public classes found the same way;
* ``numpy.fft.fftn`` and ``numpy.fft.ifftn``, which also count the bytes they
  read and write.

A function imported elsewhere with ``from .x import y`` is rebound in every
package module that holds it.  Spans (name, start, end, parent) are kept in
flat arrays in memory and summarized, or saved, after the traced command.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from array import array

FFT_FUNCTIONS = ("fftn", "ifftn")


class Tracer:
    def __init__(self, package: str = "stoldroyd"):
        self.package = package
        self.labels: list[str] = []
        self._bindings: list = []  # (owner, attribute, original, replacement)
        self._discover()
        self.reset()

    # -- span storage --------------------------------------------------

    def reset(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.fft_bytes = 0

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, fn, label: str, count_bytes: bool = False):
        label_id = len(self.labels)
        self.labels.append(label)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = self.stack
            index = len(self.start)
            self.name.append(label_id)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(index)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[index] = t0
                self.end[index] = t1
            if count_bytes:
                self.fft_bytes += getattr(args[0], "nbytes", 0) + result.nbytes
            return result

        return functools.wraps(fn)(traced)

    # -- discovery and rebinding -----------------------------------------

    def _package_modules(self) -> list:
        pkg = importlib.import_module(self.package)
        for info in pkgutil.iter_modules(pkg.__path__):
            importlib.import_module(f"{self.package}.{info.name}")
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(self.package + "."))]

    def _discover(self) -> None:
        modules = self._package_modules()
        functions = []  # (original, label)
        for mod in modules:
            if mod.__name__ == self.package:
                continue
            layer = mod.__name__.rsplit(".", 1)[1]
            names = getattr(mod, "__all__", None)
            if names is None:
                names = [n for n in vars(mod) if not n.startswith("_")]
            for n in names:
                obj = getattr(mod, n, None)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    functions.append((obj, f"{layer}.{n}"))
                elif inspect.isclass(obj):
                    self._discover_methods(obj, f"{layer}.{n}")
        for original, label in functions:
            replacement = self._wrap(original, label)
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is original:
                        self._bindings.append((mod, attr, original, replacement))
        import numpy.fft

        for n in FFT_FUNCTIONS:
            original = getattr(numpy.fft, n, None)
            if original is not None:
                replacement = self._wrap(original, f"numpy.fft.{n}", count_bytes=True)
                self._bindings.append((numpy.fft, n, original, replacement))

    def _discover_methods(self, cls, prefix: str) -> None:
        for n, raw in vars(cls).items():
            if n.startswith("_"):
                continue
            label = f"{prefix}.{n}"
            if isinstance(raw, staticmethod):
                replacement = staticmethod(self._wrap(raw.__func__, label))
            elif isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(raw.__func__, label))
            elif inspect.isfunction(raw):
                replacement = self._wrap(raw, label)
            else:
                continue
            self._bindings.append((cls, n, raw, replacement))

    def install(self) -> None:
        for owner, attr, _, replacement in self._bindings:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._bindings):
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def save(self, path: str) -> None:
        """Write the spans as arrays: label index, parent index, start, end."""
        import numpy as np

        np.savez_compressed(path, labels=np.array(self.labels), name=np.asarray(self.name),
                            parent=np.asarray(self.parent), start=np.asarray(self.start),
                            end=np.asarray(self.end))
