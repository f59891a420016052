(** Kernels and co-kernels of an SOP expression.

    A kernel of [f] is a cube-free quotient of [f] by a cube (the
    co-kernel). Kernels are the candidate multi-cube divisors used by the
    technology-independent extraction passes — exactly the "unrestrained
    factorization based on kernel extraction" whose congestion side-effects
    the paper studies. *)

type t = {
  cokernel : Cube.t;  (** The cube whose quotient yields [kernel]. *)
  kernel : Sop.t;  (** Cube-free, at least two cubes (or the whole f). *)
}

val all : Sop.t -> t list
(** Every kernel/co-kernel pair, by the classic recursive algorithm, in
    order of discovery. Includes [f] itself (with universe co-kernel) when
    [f] is cube-free and has two or more cubes.

    Each step of the recursion costs time linear in the size of the
    current quotient [g]: one pass over the masks counts every literal,
    and a quotient by a literal ({!Sop.divide_by_cube}) is built in one
    pass with no single-cube-containment check, because the quotient of
    an SCC cover by a cube is itself SCC, duplicate-free and sorted.
    Kernels are deduplicated by hashing their cube masks. *)

val literal_savings : Sop.t list -> t -> int
(** [literal_savings uses k]: literals saved by extracting kernel [k] as a
    new node given the list of functions in which it divides:
    [(n-1) * lits(kernel) - n] style SIS "value" (non-positive means not
    worth extracting). *)
