(** Small descriptive-statistics helpers used by the experiment harnesses. *)

val mean : float list -> float
(** Arithmetic mean; 0 for the empty list. *)

val stddev : float list -> float
(** Population standard deviation; 0 for lists shorter than 2. *)

val min_max : float list -> float * float
(** Raises [Invalid_argument] on the empty list. *)

val median : float list -> float

val percentile : float list -> float -> float
(** [percentile xs p] with [p] in [\[0,100\]], linear interpolation between
    closest ranks. Raises [Invalid_argument] on the empty list. *)

val sum : float list -> float

val geomean : float list -> float
(** Geometric mean of positive values; 0 for the empty list. *)
