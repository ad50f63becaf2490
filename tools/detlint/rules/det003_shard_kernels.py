"""DET003 — shard kernels must be module-level functions.

``ShardExecutor`` pickles the kernel when the process backend is active
(fork *and* spawn), so anything submitted to ``.map``/``.map_items``/
``.submit`` must be importable by qualified name.  Lambdas, closures (functions defined
inside another function), module-level ``name = lambda ...`` bindings
(their ``__qualname__`` is still ``<lambda>``), and bound methods all
fail that test — some loudly under spawn, some only on the process
backend, which is exactly the config-dependent breakage the linter
exists to catch before CI's backend matrix does.

The receiver is matched by name (last dotted segment in the configured
``executor-names`` list, default ``executor``/``_executor``/``pool``/
``_pool``), so the rule also covers raw ``concurrent.futures`` pools.
``functools.partial(...)`` is unwrapped and its wrapped callable judged
by the same rules.  Unresolvable callables (parameters, call results)
pass — the rule only flags what it can prove.
"""

from __future__ import annotations

import ast

from tools.detlint.framework import Rule, dotted_name, register_rule

_DEFAULT_EXECUTOR_NAMES = ["executor", "_executor", "pool", "_pool"]
_SUBMIT_METHODS = frozenset({"map", "map_items", "submit"})


@register_rule
class ShardKernelPicklability(Rule):
    """Flag unpicklable callables handed to shard executors."""

    rule_id = "DET003"
    severity = "error"
    description = "callable passed to a shard executor is not a module-level function"

    def _ensure_index(self) -> None:
        """Classify every function binding in the file (lazily, once)."""
        if hasattr(self, "_module_defs"):
            return
        self._module_defs: set[str] = set()
        self._module_lambdas: set[str] = set()
        self._nested_defs: set[str] = set()
        for stmt in self.ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._module_defs.add(stmt.name)
            elif isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Lambda):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self._module_lambdas.add(target.id)
        # Functions defined inside other functions are closures; methods
        # (defined inside classes) are unreachable as bare names and are
        # covered by the Attribute branch instead.
        stack: list[tuple[ast.AST, bool]] = [(self.ctx.tree, False)]
        while stack:
            node, in_func = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if in_func:
                        self._nested_defs.add(child.name)
                    stack.append((child, True))
                elif isinstance(child, ast.ClassDef):
                    stack.append((child, False))
                else:
                    stack.append((child, in_func))

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in _SUBMIT_METHODS):
            return
        receiver = dotted_name(func.value)
        if receiver is None:
            return
        names = self.options.get("executor-names", _DEFAULT_EXECUTOR_NAMES)
        if receiver.rsplit(".", 1)[-1] not in names:
            return
        if not node.args:
            return
        self._ensure_index()
        self._check_kernel(node.args[0], func.attr)

    def _check_kernel(self, kernel: ast.AST, method: str) -> None:
        if isinstance(kernel, ast.Lambda):
            self.report(kernel, (
                f"lambda passed to executor.{method}() cannot be pickled for "
                "process workers; define a module-level function"
            ))
            return
        if isinstance(kernel, ast.Call):
            # functools.partial(fn, ...) is fine iff fn is.
            target = dotted_name(kernel.func)
            if target is not None:
                head, _, rest = target.partition(".")
                resolved = self.walker.resolve(head)
                qualified = (f"{resolved}.{rest}" if rest else resolved) if resolved else target
                if qualified in ("functools.partial", "partial") and kernel.args:
                    self._check_kernel(kernel.args[0], method)
            return
        if isinstance(kernel, ast.Name):
            name = kernel.id
            if name in self._module_lambdas:
                self.report(kernel, (
                    f"{name} is a module-level lambda; its __qualname__ is "
                    "'<lambda>' so it cannot be pickled by reference — make it "
                    "a def"
                ))
            elif name in self._nested_defs and name not in self._module_defs:
                self.report(kernel, (
                    f"{name} is defined inside another function (a closure) and "
                    "cannot be pickled for process workers; hoist it to module "
                    "level and pass captured state as arguments"
                ))
            return
        if isinstance(kernel, ast.Attribute):
            target = dotted_name(kernel)
            if target is None:
                # Attribute of a call result etc.: a bound method of some
                # runtime object — not a module-level function.
                self.report(kernel, (
                    f"executor.{method}() receives a bound method; pass a "
                    "module-level function and the instance state explicitly"
                ))
                return
            head = target.partition(".")[0]
            if self.walker.resolve(head) is not None:
                return  # module attribute, e.g. os.getpid — importable
            self.report(kernel, (
                f"{target} is a bound method (receiver {head!r} is not an "
                "imported module); shard kernels must be module-level functions "
                "— pass the instance state as an argument instead"
            ))
